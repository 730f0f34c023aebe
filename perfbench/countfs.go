package main

import (
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"egocensus/internal/fault"
)

// countFS is the traced run's storage seam: a fault.FS over fault.OS that
// times and counts the operations the storage layer performs. It counts
// only while active, so set-up saves and reopen reads stay out of the
// window's figures. Log writes and syncs issued during a publish become
// child spans of that publish; a temp image's CreateTemp→Rename interval
// is one compaction span.
type countFS struct {
	fault.OS
	tr     *tracer
	active atomic.Bool
	// publish is the ID of the publish span in progress (0: none).
	publish atomic.Uint64

	mu          sync.Mutex
	syncs       []time.Duration
	logBytes    int64
	tempBytes   int64
	compactions []time.Duration
	// temps maps each temp image created in the window to its
	// compaction span.
	temps map[string]tempImage
}

type tempImage struct {
	start time.Time
	span  uint64
}

func newCountFS(tr *tracer) *countFS {
	return &countFS{tr: tr, temps: map[string]tempImage{}}
}

// isLog reports whether path is a mutation-log file of a dynamic store.
// A compaction creates the next log as <base>.log.compact and renames it
// into place, and its handle keeps the old name.
func isLog(path string) bool {
	return strings.HasSuffix(path, ".log") || strings.HasSuffix(path, ".log.compact")
}

// reset clears the counters at the start of a measured window.
func (c *countFS) reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.syncs, c.compactions = nil, nil
	c.logBytes, c.tempBytes = 0, 0
}

func (c *countFS) wrap(f fault.File, err error, temp bool) (fault.File, error) {
	if err != nil {
		return nil, err
	}
	return &countFile{File: f, fs: c, log: isLog(f.Name()), temp: temp}, nil
}

func (c *countFS) Open(name string) (fault.File, error) {
	f, err := c.OS.Open(name)
	return c.wrap(f, err, false)
}

func (c *countFS) OpenFile(name string, flag int, perm os.FileMode) (fault.File, error) {
	f, err := c.OS.OpenFile(name, flag, perm)
	return c.wrap(f, err, false)
}

func (c *countFS) CreateTemp(dir, pattern string) (fault.File, error) {
	start := time.Now()
	f, err := c.OS.CreateTemp(dir, pattern)
	if err == nil && c.active.Load() {
		c.mu.Lock()
		c.temps[f.Name()] = tempImage{start, c.tr.newID()}
		c.mu.Unlock()
	}
	return c.wrap(f, err, true)
}

func (c *countFS) Rename(oldpath, newpath string) error {
	err := c.OS.Rename(oldpath, newpath)
	end := time.Now()
	c.mu.Lock()
	t, ok := c.temps[oldpath]
	delete(c.temps, oldpath)
	ok = ok && err == nil && c.active.Load()
	if ok {
		c.compactions = append(c.compactions, end.Sub(t.start))
	}
	c.mu.Unlock()
	if ok {
		c.tr.add(span{ID: t.span, Trace: t.span, Name: "storage.compaction",
			Start: t.start.Sub(c.tr.epoch).Nanoseconds(), End: end.Sub(c.tr.epoch).Nanoseconds()})
	}
	return err
}

// parentFor returns the span a storage operation on path belongs to: the
// compaction that created a temp image, else the publish in progress for
// log files.
func (c *countFS) parentFor(path string, log bool) uint64 {
	c.mu.Lock()
	t, ok := c.temps[path]
	c.mu.Unlock()
	if ok {
		return t.span
	}
	if log {
		return c.publish.Load()
	}
	return 0
}

type countFile struct {
	fault.File
	fs   *countFS
	log  bool
	temp bool
}

func (f *countFile) Write(p []byte) (int, error) {
	if !f.fs.active.Load() || (!f.log && !f.temp) {
		return f.File.Write(p)
	}
	start := time.Now()
	n, err := f.File.Write(p)
	end := time.Now()
	f.fs.mu.Lock()
	if f.log {
		f.fs.logBytes += int64(n)
	} else {
		f.fs.tempBytes += int64(n)
	}
	f.fs.mu.Unlock()
	parent := f.fs.parentFor(f.Name(), f.log)
	f.fs.tr.record("storage.write", parent, parent, start, end)
	return n, err
}

func (f *countFile) Sync() error {
	if !f.fs.active.Load() {
		return f.File.Sync()
	}
	start := time.Now()
	err := f.File.Sync()
	end := time.Now()
	f.fs.mu.Lock()
	f.fs.syncs = append(f.fs.syncs, end.Sub(start))
	f.fs.mu.Unlock()
	parent := f.fs.parentFor(f.Name(), f.log)
	f.fs.tr.record("storage.fsync", parent, parent, start, end)
	return err
}

// storageFigures is what the counting seam measured over a window.
type storageFigures struct {
	syncs       []time.Duration
	logBytes    int64
	tempBytes   int64
	compactions []time.Duration
}

func (c *countFS) figures() storageFigures {
	c.mu.Lock()
	defer c.mu.Unlock()
	return storageFigures{
		syncs:       append([]time.Duration(nil), c.syncs...),
		logBytes:    c.logBytes,
		tempBytes:   c.tempBytes,
		compactions: append([]time.Duration(nil), c.compactions...),
	}
}
