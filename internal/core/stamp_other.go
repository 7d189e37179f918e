//go:build !linux && !darwin

package core

// statSys reports every stamp incomplete: this platform's stat record is not
// read, so no stamp is ever trusted to stand for content.
func statSys(any, *FileStamp) bool { return false }
