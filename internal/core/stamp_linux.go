package core

import "syscall"

// statSys fills the change time, inode and device of s from a stat record.
func statSys(sys any, s *FileStamp) bool {
	st, ok := sys.(*syscall.Stat_t)
	if !ok {
		return false
	}
	s.Ctime = st.Ctim.Nano()
	s.Ino, s.Dev = uint64(st.Ino), uint64(st.Dev)
	return true
}
