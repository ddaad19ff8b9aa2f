package engine

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// LockFileName is the advisory lock sentinel kept in every database
// directory. Open acquires an exclusive lock on it and Close releases it,
// so two processes can never have the same directory open at once: the
// second Open fails fast instead of both engines maintaining the same
// SMA-files into corruption.
//
// The sentinel's CONTENT doubles as the clean-shutdown marker: Open writes
// the holder's PID (making the file non-empty) and only a fully successful
// Close truncates it back to empty. A non-empty sentinel at Open therefore
// means the previous session died — or failed its Close — and recovery
// must replay the WAL before the data can be trusted.
const LockFileName = "LOCK"

// errLocked reports that another live process holds the directory.
var errLocked = errors.New("database directory is locked by another process")

// dirLock holds the open sentinel file while the lock is live.
type dirLock struct {
	f      *os.File
	unlock func() error
}

// acquireDirLock takes the exclusive advisory lock on dir's LOCK sentinel
// and reports whether the directory was shut down uncleanly (the sentinel
// was non-empty, i.e. the previous holder never reached markClean).
//
// On Unix the lock is a flock(2) on the (always-present) sentinel: it is
// tied to the open file description, conflicts across processes and across
// independent opens within one process, and evaporates with the process,
// so a crash never leaves the directory permanently locked. Elsewhere the
// lock is the atomic O_CREATE|O_EXCL creation of a claim file next to the
// sentinel (see claimLock).
func acquireDirLock(dir string) (*dirLock, bool, error) {
	path := filepath.Join(dir, LockFileName)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, false, fmt.Errorf("engine: lock %s: %w", path, err)
	}
	unlock, err := platformLock(dir, f)
	if err != nil {
		f.Close()
		return nil, false, fmt.Errorf("engine: lock %s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		unlock()
		f.Close()
		return nil, false, fmt.Errorf("engine: lock %s: %w", path, err)
	}
	wasUnclean := st.Size() > 0
	// Mark the directory dirty for the duration of the session: recovery
	// hinges on this byte surviving a crash, so the write is mandatory
	// (unlike the old best-effort PID note).
	if err := f.Truncate(0); err == nil {
		if _, err = fmt.Fprintf(f, "%d\n", os.Getpid()); err == nil {
			err = f.Sync()
		}
	}
	if err != nil {
		unlock()
		f.Close()
		return nil, false, fmt.Errorf("engine: mark %s: %w", path, err)
	}
	return &dirLock{f: f, unlock: unlock}, wasUnclean, nil
}

// markClean truncates the sentinel, recording that every durable structure
// (heap pages, SMA-files, catalog) is consistent on disk
// and the WAL has been checkpointed. Only a fully successful Close calls
// it; any failure leaves the dirty marker so the next Open runs recovery.
func (l *dirLock) markClean() error {
	if l == nil || l.f == nil {
		return nil
	}
	if err := l.f.Truncate(0); err != nil {
		return err
	}
	return l.f.Sync()
}

// release drops the lock without touching the marker. The sentinel file
// stays behind; whether it is empty decides if the next Open recovers.
func (l *dirLock) release() error {
	if l == nil || l.f == nil {
		return nil
	}
	err := l.unlock()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}

// claimLock implements directory exclusivity without flock(2): the atomic
// O_CREATE|O_EXCL creation of a claim file next to the sentinel is the
// lock, and removing the file releases it. Unlike the old marker-byte
// check (stat then write — two holders could both pass the stat), EXCL
// creation cannot race. It is still weaker than flock in one way: a crash
// leaves the claim file behind and the directory stays locked until it is
// removed by hand. The supported deployment targets are Unix; this is the
// fallback, kept in the platform-independent file so it is compiled and
// tested everywhere.
func claimLock(dir string) (func() error, error) {
	path := filepath.Join(dir, LockFileName+".claim")
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		if os.IsExist(err) {
			return nil, errLocked
		}
		return nil, err
	}
	fmt.Fprintf(f, "%d\n", os.Getpid())
	if err := f.Close(); err != nil {
		os.Remove(path)
		return nil, err
	}
	return func() error { return os.Remove(path) }, nil
}
