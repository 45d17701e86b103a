// Package silent documents its paper role but never says how it
// keeps runs reproducible, so the scan must report it.
package silent
