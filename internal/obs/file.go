package obs

import (
	"bufio"
	"io"
	"os"
)

// WriteFile creates path, fills it through a buffer with write — one of
// the byte-stable exporters (WriteChrome, a critpath report's WriteText)
// — and reports the first error, Flush's and Close's included. It is
// how the CLIs turn a -trace or -critpath flag into a file.
func WriteFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := write(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
