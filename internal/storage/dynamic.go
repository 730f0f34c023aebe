package storage

import (
	"encoding/binary"
	"fmt"
	"os"
	"sync"

	"egocensus/internal/fault"
	"egocensus/internal/graph"
)

// DynamicStore is the durable backing of a mutating graph: a base .egoc
// image plus append-only mutation-log sidecars, fronted by a
// graph.Writer. Opening replays the log onto the base image and
// resumes the epoch sequence; every publish is WAL-appended and fsynced
// before it becomes visible, so a crash at any point recovers exactly the
// last published snapshot. A background compactor folds the log into the
// base image (reusing Save's atomic temp-file/rename discipline) once the
// log outgrows CompactAtBytes.
//
// The store's shard count is fixed at creation and recorded in the image
// header. An unsharded (1-shard) store keeps the historical layout — a
// single <base>.log sidecar in the v1 record format, byte-identical to
// what the pre-sharding code wrote — and existing single-log stores open
// unchanged. A P-shard store persists each epoch across P independent
// segment files <base>.log.0 … <base>.log.P-1 (see shardlog.go), replays
// them in parallel on open, and compacts all P together.
//
// Every log header carries the trailing CRC32 of the base image it
// extends. That binding makes crash recovery around compaction
// unambiguous: a crash between the base-image rename and the log swap
// leaves a new image with old logs, which the CRC mismatch identifies as
// stale — their batches are already folded into the image, so they are
// discarded and fresh logs are started at the epoch where they ended. In
// the sharded layout the swap is per segment, so the mismatch is resolved
// per segment too.
type DynamicStore struct {
	fsys     fault.FS
	basePath string
	logPath  string
	shards   int
	w        *graph.Writer

	mu     sync.Mutex // serializes Compact and Close; publishes take the writer's own lock
	log    mutLog
	closed bool

	compactCh chan struct{}
	done      chan struct{}
	wg        sync.WaitGroup

	// CompactAtBytes is the log size that triggers background compaction;
	// <= 0 disables the background compactor (Compact stays available).
	compactAtBytes int64
}

// mutLog is what DynamicStore needs from a mutation log, satisfied by
// both the single-file *Log and the per-shard *ShardedLog.
type mutLog interface {
	graph.WAL
	Records() int
	Size() int64
	BaseEpoch() uint64
	LastEpoch() uint64
	Close() error
}

// DefaultCompactAtBytes is the log size at which OpenDynamic's background
// compactor folds the log into the base image.
const DefaultCompactAtBytes = 4 << 20

// MaxShards bounds a dynamic store's shard count (the image header stores
// it in 16 bits).
const MaxShards = 1<<16 - 1

// CreateDynamic initializes an unsharded dynamic store at basePath from
// g: the base image is saved atomically, an empty mutation log is created
// beside it, and the opened store is returned. Fails if basePath already
// exists.
func CreateDynamic(basePath string, g *graph.Graph) (*DynamicStore, error) {
	return CreateDynamicShardedFS(fault.OS{}, basePath, g, 1)
}

// CreateDynamicFS is CreateDynamic through an explicit filesystem seam.
func CreateDynamicFS(fsys fault.FS, basePath string, g *graph.Graph) (*DynamicStore, error) {
	return CreateDynamicShardedFS(fsys, basePath, g, 1)
}

// CreateDynamicSharded initializes a dynamic store partitioned across
// shards mutation-log lanes. The shard count is recorded in the image
// header and fixed for the store's lifetime; shards <= 1 creates the
// historical unsharded layout.
func CreateDynamicSharded(basePath string, g *graph.Graph, shards int) (*DynamicStore, error) {
	return CreateDynamicShardedFS(fault.OS{}, basePath, g, shards)
}

// CreateDynamicShardedFS is CreateDynamicSharded through a filesystem
// seam.
func CreateDynamicShardedFS(fsys fault.FS, basePath string, g *graph.Graph, shards int) (*DynamicStore, error) {
	if shards > MaxShards {
		return nil, fmt.Errorf("storage: shard count %d exceeds %d", shards, MaxShards)
	}
	if _, err := fsys.Stat(basePath); err == nil {
		return nil, fmt.Errorf("storage: %s already exists", basePath)
	} else if !os.IsNotExist(err) {
		return nil, err
	}
	if err := SaveShardedFS(fsys, basePath, g, shards); err != nil {
		return nil, err
	}
	return OpenDynamicFS(fsys, basePath)
}

// OpenDynamic opens the dynamic store at basePath: the base image is
// materialized, the sidecar log (if any) is replayed onto it — truncating
// a torn tail from a crashed append, discarding a stale log from a
// crashed compaction — and a writer resumes at the recovered epoch. The
// store's layout (unsharded or P-shard) comes from the image header.
// The returned store's background compactor is active with the default
// threshold; tune it with SetCompactAtBytes.
func OpenDynamic(basePath string) (*DynamicStore, error) {
	return OpenDynamicFS(fault.OS{}, basePath)
}

// imageShardCountFS reads just enough of an image header to learn its
// shard count.
func imageShardCountFS(fsys fault.FS, path string) (int, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	var buf [10]byte
	if _, err := f.ReadAt(buf[:], 0); err != nil {
		return 0, &CorruptFileError{Path: path, Detail: "header unreadable"}
	}
	for i := range Magic {
		if buf[i] != Magic[i] {
			return 0, &CorruptFileError{Path: path, Detail: fmt.Sprintf("bad magic %q", buf[:6])}
		}
	}
	h := header{Flags: binary.LittleEndian.Uint32(buf[6:])}
	return h.shardCount(), nil
}

// OpenDynamicFS is OpenDynamic through an explicit filesystem seam: the
// chaos harness opens stores over a fault.Injector to drive scripted
// crash, torn-write and errno faults through every recovery path.
func OpenDynamicFS(fsys fault.FS, basePath string) (*DynamicStore, error) {
	g, err := LoadFS(fsys, basePath)
	if err != nil {
		return nil, err
	}
	shards, err := imageShardCountFS(fsys, basePath)
	if err != nil {
		return nil, err
	}
	baseCRC, err := baseImageCRC(fsys, basePath)
	if err != nil {
		return nil, err
	}
	logPath := basePath + ".log"
	apply := func(d graph.Delta) error {
		for _, op := range d.Ops {
			if err := graph.ApplyOp(g, op); err != nil {
				return err
			}
		}
		return nil
	}

	var log mutLog
	lastEpoch := uint64(0)
	if shards > 1 {
		sl, err := OpenShardedLogFS(fsys, basePath, baseCRC, shards, apply)
		if err != nil {
			return nil, err
		}
		log = sl
		lastEpoch = sl.LastEpoch()
	} else {
		switch _, statErr := fsys.Stat(logPath); {
		case os.IsNotExist(statErr):
			l, err := CreateLogFS(fsys, logPath, baseCRC, 0)
			if err != nil {
				return nil, err
			}
			log = l
		case statErr != nil:
			return nil, statErr
		default:
			l, err := OpenLogFS(fsys, logPath, baseCRC, apply)
			if err != nil {
				// A CRC-binding mismatch means a compaction crashed after
				// renaming the new base image but before swapping the log:
				// the old log's batches are already folded into the image.
				// Discard it, but resume the epoch sequence past its last
				// record.
				staleCRC, staleLast, scanErr := logBaseCRCFS(fsys, logPath)
				if scanErr != nil || staleCRC == baseCRC {
					return nil, err
				}
				if l, err = CreateLogFS(fsys, logPath, baseCRC, staleLast); err != nil {
					return nil, err
				}
			}
			log = l
			lastEpoch = l.LastEpoch()
		}
	}

	ds := &DynamicStore{
		fsys:           fsys,
		basePath:       basePath,
		logPath:        logPath,
		shards:         shards,
		log:            log,
		compactCh:      make(chan struct{}, 1),
		done:           make(chan struct{}),
		compactAtBytes: DefaultCompactAtBytes,
	}
	ds.w = graph.NewShardedWriterAt(g, lastEpoch, shards)
	ds.w.SetWAL(log)
	// Nudge the compactor after every publish; the send never blocks the
	// publish path (the channel holds one pending nudge).
	ds.w.Subscribe(func(*graph.Snapshot, graph.Delta) {
		select {
		case ds.compactCh <- struct{}{}:
		default:
		}
	})
	ds.wg.Add(1)
	go ds.compactor()
	return ds, nil
}

// Writer returns the store's single mutation path, a graph.Writer with
// the store's shard count. Batches published through it are durable
// before they are visible. With one shard a failed log append degrades
// the whole writer to read-only; with P shards a failed segment degrades
// only the lane that owns it.
func (ds *DynamicStore) Writer() *graph.Writer { return ds.w }

// Snapshot returns the current published version (O(1)).
func (ds *DynamicStore) Snapshot() *graph.Snapshot { return ds.w.Snapshot() }

// Shards returns the store's shard count (1 for the unsharded layout).
func (ds *DynamicStore) Shards() int { return ds.shards }

// SetCompactAtBytes adjusts the background compaction threshold; <= 0
// disables background compaction.
func (ds *DynamicStore) SetCompactAtBytes(n int64) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	ds.compactAtBytes = n
}

// LogStats reports the mutation log's current shape for monitoring. For
// sharded stores the numbers aggregate every segment.
func (ds *DynamicStore) LogStats() (records int, bytes int64, baseEpoch uint64) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	return ds.log.Records(), ds.log.Size(), ds.log.BaseEpoch()
}

func (ds *DynamicStore) compactor() {
	defer ds.wg.Done()
	for {
		select {
		case <-ds.done:
			return
		case <-ds.compactCh:
			ds.mu.Lock()
			need := !ds.closed && ds.compactAtBytes > 0 && ds.log.Size() >= ds.compactAtBytes
			ds.mu.Unlock()
			if need {
				// Best-effort: a failed background compaction leaves the
				// log growing; the next publish re-nudges.
				_ = ds.Compact()
			}
		}
	}
}

// Compact folds the mutation log into the base image: the current
// snapshot is saved atomically as the new base (with the same shard
// count), then — under the writer's publish barrier, so no batch can slip
// between — fresh empty logs bound to the new image replace the old ones.
// Publishes are briefly blocked during the save; readers never are.
// Crash-safe at every step: the image save and each log swap are
// temp-file-plus-rename, and stale old logs left by a crash in between
// are detected by their CRC binding on the next open — per segment in the
// sharded layout, since the P segment renames cannot be atomic together.
func (ds *DynamicStore) Compact() error {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if ds.closed {
		return fmt.Errorf("storage: dynamic store %s is closed", ds.basePath)
	}
	err := ds.w.Barrier(func(cur *graph.Snapshot) (graph.WAL, error) {
		if err := SaveShardedFS(ds.fsys, ds.basePath, cur.Graph(), ds.shards); err != nil {
			return nil, err
		}
		newCRC, err := baseImageCRC(ds.fsys, ds.basePath)
		if err != nil {
			return nil, err
		}
		if ds.shards > 1 {
			tmpBase := ds.basePath + ".compact"
			nl, err := CreateShardedLogFS(ds.fsys, tmpBase, newCRC, cur.Epoch(), ds.shards)
			if err != nil {
				return nil, err
			}
			if err := nl.renameSegmentsInto(ds.basePath); err != nil {
				nl.Close()
				nl.removeSegments()
				return nil, err
			}
			ds.log.Close()
			ds.log = nl
			return nl, nil
		}
		tmp := ds.logPath + ".compact"
		nl, err := CreateLogFS(ds.fsys, tmp, newCRC, cur.Epoch())
		if err != nil {
			return nil, err
		}
		if err := nl.renameLogInto(ds.logPath); err != nil {
			nl.Close()
			ds.fsys.Remove(tmp)
			return nil, err
		}
		ds.log.Close()
		ds.log = nl
		return nl, nil
	})
	return err
}

// Close publishes nothing, stops the background compactor, and releases
// the log. Pending unpublished writer ops are discarded (publish first if
// they matter); everything already published is durable.
func (ds *DynamicStore) Close() error {
	ds.mu.Lock()
	if ds.closed {
		ds.mu.Unlock()
		return nil
	}
	ds.closed = true
	close(ds.done)
	ds.mu.Unlock()
	ds.wg.Wait()
	ds.mu.Lock()
	defer ds.mu.Unlock()
	return ds.log.Close()
}
