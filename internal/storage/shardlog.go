package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"egocensus/internal/fault"
	"egocensus/internal/graph"
)

// Sharded mutation logs: a P-shard dynamic store persists each published
// epoch as up to P independent segment records, one per shard that had
// ops, in files <base>.log.0 … <base>.log.P-1. Each segment is framed
// like the v1 log —
//
//	[u32 payload length][payload][u32 CRC32(payload)]
//
// — but with a v2 payload that makes cross-segment reassembly and torn
// multi-segment appends detectable:
//
//	u64 epoch, u32 totalOps (whole epoch, all segments),
//	u32 count (this segment), then per op:
//	u32 batch index, u8 kind, u32 A, u32 B, str16 key, str16 val
//
// after a 26-byte header: the 6-byte magic "EGOLv2", the u32 trailing CRC
// of the base image (the same binding the v1 log uses), the u64 base
// epoch, and u32 shard / u32 shard-count.
//
// The writer fsyncs every segment of an epoch before publishing it, and a
// crash between segment fsyncs leaves the epoch incomplete in at least
// one segment. Replay detects that by summing the per-segment counts
// against totalOps: an incomplete newest epoch is a torn append — it was
// never published, so its records are truncated from every segment — while
// an incomplete older epoch is structural corruption. Within a segment,
// epochs are strictly increasing but may skip (a shard with no ops in an
// epoch writes nothing; a degraded shard is routed around entirely).

// ShardLogMagic identifies sharded mutation-log segments (format v2).
var ShardLogMagic = [6]byte{'E', 'G', 'O', 'L', 'v', '2'}

const segHeaderSize = 6 + 4 + 8 + 4 + 4

// segPath returns shard i's segment path for a store at basePath.
func segPath(basePath string, shard int) string {
	return fmt.Sprintf("%s.log.%d", basePath, shard)
}

// logSegment is one shard's open segment, positioned for appending.
type logSegment struct {
	fsys      fault.FS
	path      string
	f         fault.File
	shard     int
	baseEpoch uint64
	size      int64
	records   int
	broken    error
	buf       []byte
}

// ShardedLog is the set of per-shard segments of one sharded store. It
// implements graph.ShardWAL: AppendShardBatch persists one epoch across
// the segments in parallel, restoring every segment's record boundary if
// any of them fails so the epoch is retryable, and identifying the
// failing shard so the writer degrades only that lane.
type ShardedLog struct {
	fsys     fault.FS
	basePath string
	baseCRC  uint32
	shards   int

	mu        sync.Mutex
	segs      []*logSegment
	lastEpoch uint64
	records   int
	size      int64
}

// CreateShardedLog creates fresh (truncated) segments for every shard.
func CreateShardedLog(basePath string, baseCRC uint32, baseEpoch uint64, shards int) (*ShardedLog, error) {
	return CreateShardedLogFS(fault.OS{}, basePath, baseCRC, baseEpoch, shards)
}

// CreateShardedLogFS is CreateShardedLog through a filesystem seam. The
// segment files land at basePath+".log.<shard>"; compaction creates them
// under a temporary basePath and renames them into place.
func CreateShardedLogFS(fsys fault.FS, basePath string, baseCRC uint32, baseEpoch uint64, shards int) (*ShardedLog, error) {
	l := &ShardedLog{fsys: fsys, basePath: basePath, baseCRC: baseCRC, shards: shards, lastEpoch: baseEpoch}
	for s := 0; s < shards; s++ {
		seg, err := createSegment(fsys, segPath(basePath, s), baseCRC, baseEpoch, s, shards)
		if err != nil {
			l.Close()
			return nil, err
		}
		l.segs = append(l.segs, seg)
		l.size += seg.size
	}
	return l, nil
}

func createSegment(fsys fault.FS, path string, baseCRC uint32, baseEpoch uint64, shard, shards int) (*logSegment, error) {
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	var hdr [segHeaderSize]byte
	copy(hdr[:], ShardLogMagic[:])
	binary.LittleEndian.PutUint32(hdr[6:], baseCRC)
	binary.LittleEndian.PutUint64(hdr[10:], baseEpoch)
	binary.LittleEndian.PutUint32(hdr[18:], uint32(shard))
	binary.LittleEndian.PutUint32(hdr[22:], uint32(shards))
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		fsys.Remove(path)
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fsys.Remove(path)
		return nil, err
	}
	return &logSegment{fsys: fsys, path: path, f: f, shard: shard, baseEpoch: baseEpoch, size: segHeaderSize}, nil
}

// segRecord is one decoded segment record plus its frame's byte range.
type segRecord struct {
	epoch    uint64
	totalOps int
	index    []uint32
	ops      []graph.Op
	start    int // offset of the frame within the record region
	end      int
}

// scanSegmentRecords parses a segment's record region with the same
// torn-tail semantics as the v1 scan: an incomplete or CRC-failing final
// frame ends the scan silently; structural damage in a CRC-valid record
// is corruption. Epochs must be strictly increasing and past the
// segment's base epoch, but may skip.
func scanSegmentRecords(path string, rec []byte, baseEpoch uint64) ([]segRecord, int, error) {
	var out []segRecord
	pos := 0
	prev := baseEpoch
	for {
		if len(rec)-pos < 4 {
			break
		}
		plen := int(binary.LittleEndian.Uint32(rec[pos:]))
		if plen > maxLogRecordBytes || len(rec)-pos-4 < plen+4 {
			break
		}
		payload := rec[pos+4 : pos+4+plen]
		wantCRC := binary.LittleEndian.Uint32(rec[pos+4+plen:])
		if crc32.ChecksumIEEE(payload) != wantCRC {
			break
		}
		r, err := decodeSegPayload(payload)
		if err != nil {
			return nil, 0, &CorruptFileError{Path: path, Detail: fmt.Sprintf("record %d: %v", len(out), err)}
		}
		if r.epoch <= prev {
			return nil, 0, &CorruptFileError{Path: path, Detail: fmt.Sprintf("record %d: epoch %d not after %d", len(out), r.epoch, prev)}
		}
		prev = r.epoch
		r.start, r.end = pos, pos+4+plen+4
		out = append(out, r)
		pos = r.end
	}
	return out, pos, nil
}

func decodeSegPayload(p []byte) (segRecord, error) {
	var r segRecord
	if len(p) < 16 {
		return r, fmt.Errorf("payload shorter than its 16-byte preamble")
	}
	r.epoch = binary.LittleEndian.Uint64(p)
	r.totalOps = int(binary.LittleEndian.Uint32(p[8:]))
	count := int(binary.LittleEndian.Uint32(p[12:]))
	p = p[16:]
	// Each op occupies at least 17 bytes (index + fixed op fields + two
	// empty strings), bounding count by the payload size.
	if count < 0 || count > len(p)/17 {
		return r, fmt.Errorf("op count %d exceeds payload capacity", count)
	}
	if r.totalOps < count {
		return r, fmt.Errorf("segment count %d exceeds epoch total %d", count, r.totalOps)
	}
	r.index = make([]uint32, 0, count)
	r.ops = make([]graph.Op, 0, count)
	for i := 0; i < count; i++ {
		if len(p) < 13 {
			return r, fmt.Errorf("op %d: truncated fixed fields", i)
		}
		idx := binary.LittleEndian.Uint32(p)
		if int(idx) >= r.totalOps {
			return r, fmt.Errorf("op %d: batch index %d out of range [0,%d)", i, idx, r.totalOps)
		}
		op := graph.Op{
			Kind: graph.OpKind(p[4]),
			A:    int32(binary.LittleEndian.Uint32(p[5:])),
			B:    int32(binary.LittleEndian.Uint32(p[9:])),
		}
		if op.Kind < graph.OpAddNode || op.Kind > graph.OpSetEdgeAttr {
			return r, fmt.Errorf("op %d: unknown kind %d", i, op.Kind)
		}
		p = p[13:]
		var err error
		if op.Key, p, err = takeStr16(p); err != nil {
			return r, fmt.Errorf("op %d key: %w", i, err)
		}
		if op.Val, p, err = takeStr16(p); err != nil {
			return r, fmt.Errorf("op %d val: %w", i, err)
		}
		r.index = append(r.index, idx)
		r.ops = append(r.ops, op)
	}
	if len(p) != 0 {
		return r, fmt.Errorf("%d trailing bytes after %d ops", len(p), count)
	}
	return r, nil
}

// segScan is one segment's open-time scan result.
type segScan struct {
	shard     int
	state     int // segGood, segStale, segMissing
	baseEpoch uint64
	lastSeen  uint64 // newest epoch seen (stale segments too)
	records   []segRecord
	validLen  int // valid record-region bytes (good segments)
	data      []byte
}

const (
	segGood = iota
	segStale
	segMissing
)

// OpenShardedLog opens the segment set of a sharded store, replaying
// every complete epoch through apply in publish order.
func OpenShardedLog(basePath string, baseCRC uint32, shards int, apply func(graph.Delta) error) (*ShardedLog, error) {
	return OpenShardedLogFS(fault.OS{}, basePath, baseCRC, shards, apply)
}

// OpenShardedLogFS is OpenShardedLog through a filesystem seam. Recovery
// semantics, per segment and across them:
//
//   - A torn final frame in a segment (crash mid-append) is truncated.
//   - The newest epoch incomplete across segments (crash between segment
//     fsyncs — the op counts don't sum to its recorded total) is a torn
//     multi-segment append: never published, its records are truncated
//     from every segment. An incomplete older epoch is corruption.
//   - A segment whose header binds a different base image is stale (a
//     compaction crashed between the image rename and the segment swap):
//     its batches are already folded into the image, so it is discarded
//     and recreated empty, with the epoch sequence resuming past
//     everything seen.
//   - A missing segment file is recreated empty the same way.
func OpenShardedLogFS(fsys fault.FS, basePath string, baseCRC uint32, shards int, apply func(graph.Delta) error) (*ShardedLog, error) {
	scans := make([]*segScan, shards)
	var readErr error
	var wg sync.WaitGroup
	var mu sync.Mutex
	wg.Add(shards)
	// Parallel replay-on-open, phase one: every segment is read, CRC-checked
	// and decoded concurrently; only the cross-segment merge is sequential.
	for s := 0; s < shards; s++ {
		go func(s int) {
			defer wg.Done()
			scan, err := scanSegmentFile(fsys, segPath(basePath, s), baseCRC, s)
			mu.Lock()
			defer mu.Unlock()
			if err != nil && readErr == nil {
				readErr = err
			}
			scans[s] = scan
		}(s)
	}
	wg.Wait()
	if readErr != nil {
		return nil, readErr
	}

	// Merge the good segments' records into per-epoch batches.
	type epochParts struct {
		totalOps int
		have     int
		recs     []*segRecord
		shards   []int
	}
	byEpoch := map[uint64]*epochParts{}
	minGoodBase := uint64(0)
	haveGood := false
	resume := uint64(0)
	for _, sc := range scans {
		if sc.state != segGood {
			// A stale segment's epoch watermark survives even though its
			// records are discarded: after a compaction crash with no
			// segment swapped yet, it is the only evidence of the epoch
			// the new image already folded in.
			if sc.lastSeen > resume {
				resume = sc.lastSeen
			}
			continue
		}
		// Good segments contribute only their base epoch here; their
		// replayed epochs raise resume below, AFTER a torn newest epoch
		// (complete in this segment, torn in a sibling) is dropped.
		if !haveGood || sc.baseEpoch < minGoodBase {
			minGoodBase = sc.baseEpoch
		}
		haveGood = true
		if sc.baseEpoch > resume {
			resume = sc.baseEpoch
		}
		for i := range sc.records {
			r := &sc.records[i]
			ep := byEpoch[r.epoch]
			if ep == nil {
				ep = &epochParts{totalOps: r.totalOps}
				byEpoch[r.epoch] = ep
			} else if ep.totalOps != r.totalOps {
				return nil, &CorruptFileError{Path: segPath(basePath, sc.shard),
					Detail: fmt.Sprintf("epoch %d records disagree on total op count (%d vs %d)", r.epoch, r.totalOps, ep.totalOps)}
			}
			ep.have += len(r.ops)
			ep.recs = append(ep.recs, r)
			ep.shards = append(ep.shards, sc.shard)
		}
	}
	epochs := make([]uint64, 0, len(byEpoch))
	for e := range byEpoch {
		epochs = append(epochs, e)
	}
	sort.Slice(epochs, func(i, j int) bool { return epochs[i] < epochs[j] })

	// Drop a torn newest epoch; reject holes anywhere else.
	if n := len(epochs); n > 0 {
		if last := byEpoch[epochs[n-1]]; last.have < last.totalOps {
			for i, r := range last.recs {
				sc := scans[last.shards[i]]
				if r.end != sc.validLen {
					return nil, &CorruptFileError{Path: segPath(basePath, last.shards[i]),
						Detail: fmt.Sprintf("incomplete epoch %d is not the segment tail", epochs[n-1])}
				}
				sc.validLen = r.start
				sc.records = sc.records[:len(sc.records)-1]
			}
			delete(byEpoch, epochs[n-1])
			epochs = epochs[:n-1]
		}
	}
	for i, e := range epochs {
		ep := byEpoch[e]
		if ep.have != ep.totalOps {
			return nil, &CorruptFileError{Path: basePath + ".log.*",
				Detail: fmt.Sprintf("epoch %d holds %d of %d ops", e, ep.have, ep.totalOps)}
		}
		if want := minGoodBase + 1 + uint64(i); e != want {
			return nil, &CorruptFileError{Path: basePath + ".log.*",
				Detail: fmt.Sprintf("epoch %d breaks sequence (expected %d)", e, want)}
		}
		if e > resume {
			resume = e
		}
	}

	// Replay complete epochs in order, reassembling publish order from the
	// batch indexes.
	for _, e := range epochs {
		ep := byEpoch[e]
		ops := make([]graph.Op, ep.totalOps)
		seen := make([]bool, ep.totalOps)
		for _, r := range ep.recs {
			for i, op := range r.ops {
				idx := r.index[i]
				if seen[idx] {
					return nil, &CorruptFileError{Path: basePath + ".log.*",
						Detail: fmt.Sprintf("epoch %d: duplicate batch index %d", e, idx)}
				}
				seen[idx] = true
				ops[idx] = op
			}
		}
		if apply != nil {
			if err := apply(graph.Delta{Epoch: e, Ops: ops}); err != nil {
				return nil, &CorruptFileError{Path: basePath + ".log.*", Detail: fmt.Sprintf("replaying epoch %d: %v", e, err)}
			}
		}
	}

	// Open good segments for appending (truncating torn tails), recreate
	// stale and missing ones bound to the current image at the resume
	// epoch.
	l := &ShardedLog{fsys: fsys, basePath: basePath, baseCRC: baseCRC, shards: shards, lastEpoch: resume}
	for _, sc := range scans {
		var seg *logSegment
		var err error
		path := segPath(basePath, sc.shard)
		if sc.state == segGood {
			seg, err = openSegmentTail(fsys, path, sc)
		} else {
			seg, err = createSegment(fsys, path, baseCRC, resume, sc.shard, shards)
		}
		if err != nil {
			l.Close()
			return nil, err
		}
		l.segs = append(l.segs, seg)
		l.records += seg.records
		l.size += seg.size
	}
	return l, nil
}

// scanSegmentFile reads and classifies one segment file.
func scanSegmentFile(fsys fault.FS, path string, baseCRC uint32, shard int) (*segScan, error) {
	sc := &segScan{shard: shard}
	data, err := fsys.ReadFile(path)
	if os.IsNotExist(err) {
		sc.state = segMissing
		return sc, nil
	}
	if err != nil {
		return nil, err
	}
	if len(data) < segHeaderSize || string(data[:6]) != string(ShardLogMagic[:]) {
		return nil, &CorruptFileError{Path: path, Detail: "segment header unreadable"}
	}
	gotCRC := binary.LittleEndian.Uint32(data[6:])
	sc.baseEpoch = binary.LittleEndian.Uint64(data[10:])
	if got := int(binary.LittleEndian.Uint32(data[18:])); got != shard {
		return nil, &CorruptFileError{Path: path, Detail: fmt.Sprintf("segment claims shard %d, expected %d", got, shard)}
	}
	records, validLen, err := scanSegmentRecords(path, data[segHeaderSize:], sc.baseEpoch)
	if err != nil {
		return nil, err
	}
	sc.records, sc.validLen, sc.data = records, validLen, data
	sc.lastSeen = sc.baseEpoch
	if n := len(records); n > 0 {
		sc.lastSeen = records[n-1].epoch
	}
	if gotCRC != baseCRC {
		sc.state = segStale
		sc.records = nil
		return sc, nil
	}
	sc.state = segGood
	return sc, nil
}

// openSegmentTail opens a good segment for appending, truncating
// everything past its valid record region.
func openSegmentTail(fsys fault.FS, path string, sc *segScan) (*logSegment, error) {
	f, err := fsys.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	size := int64(segHeaderSize) + int64(sc.validLen)
	if size < int64(len(sc.data)) {
		if err := f.Truncate(size); err != nil {
			f.Close()
			return nil, err
		}
	}
	if _, err := f.Seek(size, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	return &logSegment{
		fsys:      fsys,
		path:      path,
		f:         f,
		shard:     sc.shard,
		baseEpoch: sc.baseEpoch,
		size:      size,
		records:   len(sc.records),
	}, nil
}

// shardSegmentError wires a segment failure to the writer's per-shard
// degraded mode: graph.Writer extracts FailedShard and degrades only
// that lane. Transience classification passes through Unwrap.
type shardSegmentError struct {
	shard int
	err   error
}

func (e *shardSegmentError) Error() string {
	return fmt.Sprintf("storage: shard %d segment: %v", e.shard, e.err)
}
func (e *shardSegmentError) Unwrap() error    { return e.err }
func (e *shardSegmentError) FailedShard() int { return e.shard }

// AppendShardBatch implements graph.ShardWAL: one epoch's per-shard
// records are encoded, written and fsynced in parallel, and the epoch
// advances only if every segment append succeeds. On any failure every
// touched segment is rewound to its prior record boundary, so the whole
// epoch is retryable; the returned error carries the failing shard.
func (l *ShardedLog) AppendShardBatch(parts []graph.ShardBatch, totalOps int) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, p := range parts {
		if p.Shard < 0 || p.Shard >= len(l.segs) {
			return fmt.Errorf("storage: shard %d out of range [0,%d)", p.Shard, len(l.segs))
		}
		if seg := l.segs[p.Shard]; seg.broken != nil {
			return &shardSegmentError{shard: p.Shard, err: fmt.Errorf("segment unusable after write failure: %w", seg.broken)}
		}
	}
	epoch := l.lastEpoch + 1
	errs := make([]error, len(parts))
	var wg sync.WaitGroup
	wg.Add(len(parts))
	for i := range parts {
		go func(i int) {
			defer wg.Done()
			p := &parts[i]
			seg := l.segs[p.Shard]
			seg.buf = appendSegRecord(seg.buf[:0], epoch, totalOps, p.Index, p.Ops)
			if _, err := seg.f.Write(seg.buf); err != nil {
				errs[i] = err
				return
			}
			errs[i] = seg.f.Sync()
		}(i)
	}
	wg.Wait()

	failAt := -1
	for i, err := range errs {
		if err != nil {
			failAt = i
			break
		}
	}
	if failAt < 0 {
		l.lastEpoch = epoch
		for i := range parts {
			seg := l.segs[parts[i].Shard]
			seg.records++
			seg.size += int64(len(seg.buf))
			l.records++
			l.size += int64(len(seg.buf))
		}
		return nil
	}
	// Rewind every touched segment — including the ones that succeeded —
	// so a retry (or a routed-around publish) starts every segment at a
	// clean record boundary.
	for i := range parts {
		seg := l.segs[parts[i].Shard]
		if err := seg.rewind(); err != nil && errs[i] == nil {
			errs[i] = err
		}
	}
	shard := parts[failAt].Shard
	seg := l.segs[shard]
	if seg.broken != nil {
		return &shardSegmentError{shard: shard, err: fmt.Errorf("append failed (%v) and the boundary could not be restored: %w", errs[failAt], seg.broken)}
	}
	return &shardSegmentError{shard: shard, err: classifyIO("wal segment append", seg.path, errs[failAt])}
}

// rewind restores a segment to its last durable record boundary after a
// failed (or aborted) append. Failure marks the segment broken.
func (seg *logSegment) rewind() error {
	if err := seg.f.Truncate(seg.size); err != nil {
		seg.broken = err
		return err
	}
	if _, err := seg.f.Seek(seg.size, io.SeekStart); err != nil {
		seg.broken = err
		return err
	}
	return nil
}

// appendSegRecord frames one shard's slice of an epoch.
func appendSegRecord(b []byte, epoch uint64, totalOps int, index []uint32, ops []graph.Op) []byte {
	start := len(b)
	b = append(b, 0, 0, 0, 0) // length placeholder
	p0 := len(b)
	b = binary.LittleEndian.AppendUint64(b, epoch)
	b = binary.LittleEndian.AppendUint32(b, uint32(totalOps))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(ops)))
	for i, op := range ops {
		b = binary.LittleEndian.AppendUint32(b, index[i])
		b = append(b, byte(op.Kind))
		b = binary.LittleEndian.AppendUint32(b, uint32(op.A))
		b = binary.LittleEndian.AppendUint32(b, uint32(op.B))
		b = binary.LittleEndian.AppendUint16(b, uint16(len(op.Key)))
		b = append(b, op.Key...)
		b = binary.LittleEndian.AppendUint16(b, uint16(len(op.Val)))
		b = append(b, op.Val...)
	}
	payload := b[p0:]
	binary.LittleEndian.PutUint32(b[start:], uint32(len(payload)))
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
}

// AppendBatch implements the plain graph.WAL interface for completeness:
// the whole batch lands on segment 0 with identity indexes. The sharded
// writer always uses AppendShardBatch; this path exists so a ShardedLog
// can stand in anywhere a WAL is expected.
func (l *ShardedLog) AppendBatch(ops []graph.Op) error {
	index := make([]uint32, len(ops))
	for i := range index {
		index[i] = uint32(i)
	}
	return l.AppendShardBatch([]graph.ShardBatch{{Shard: 0, Index: index, Ops: ops}}, len(ops))
}

// renameSegmentsInto atomically moves every segment file to the segment
// paths of dst (the store base path), replacing what is there. Used by
// compaction: the segments must have been created under a temporary base
// path in the same directory. Renames happen shard by shard; a crash
// mid-way leaves a mix of old (stale, CRC-bound to the previous image)
// and new segments, which the next open resolves per segment.
func (l *ShardedLog) renameSegmentsInto(dst string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, seg := range l.segs {
		to := segPath(dst, seg.shard)
		if err := l.fsys.Rename(seg.path, to); err != nil {
			return err
		}
		seg.path = to
	}
	l.basePath = dst
	syncDir(l.fsys, filepath.Dir(dst))
	return nil
}

// removeSegments deletes every segment file (cleanup of an abandoned
// compaction target).
func (l *ShardedLog) removeSegments() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, seg := range l.segs {
		l.fsys.Remove(seg.path)
	}
}

// LastEpoch returns the newest appended epoch (the base epoch when all
// segments are empty).
func (l *ShardedLog) LastEpoch() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastEpoch
}

// BaseEpoch returns the epoch the segment set resumes from: the minimum
// of the per-segment base epochs.
func (l *ShardedLog) BaseEpoch() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	base := uint64(0)
	for i, seg := range l.segs {
		if i == 0 || seg.baseEpoch < base {
			base = seg.baseEpoch
		}
	}
	return base
}

// Records returns the total intact record count across segments.
func (l *ShardedLog) Records() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.records
}

// Size returns the combined on-disk size of every segment.
func (l *ShardedLog) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Shards returns the segment count.
func (l *ShardedLog) Shards() int { return l.shards }

// Close releases every segment's file handle.
func (l *ShardedLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	var first error
	for _, seg := range l.segs {
		if err := seg.f.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
