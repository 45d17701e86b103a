// Package good models nothing from the paper; it is Deterministic by
// construction, which is all the scan asks a package doc to say.
package good
