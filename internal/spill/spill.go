// Package spill is a bounded on-disk second-level cache: an append-only
// segment-file store with a compact in-memory index. It sits below the
// byte-budgeted in-memory response caches (internal/api) as an
// evict-to-disk sink and above peer fetch / local evaluation as a read
// tier, trading one sequential disk read for a full re-evaluation of a
// large sweep.
//
// Layout and invariants (DESIGN.md S32):
//
//   - Data lives in numbered segment files (seg-%016x.seg) under Dir.
//     Segments are append-only; records are never modified in place.
//   - Each record is framed as
//     crc32 | keyLen | bodyLen | key | body
//     (all fixed-width fields uint32 little-endian). The CRC (IEEE) is
//     computed over key ++ body ++ keyLen ++ bodyLen — key/body first so
//     a streaming writer can accumulate it before the lengths are known.
//   - The in-memory index maps a sampled 64-bit key hash to
//     (segment, offset, lengths, CRC of the stored key). Hash collisions
//     are resolved on read: every record stores its full key and a lookup
//     compares it byte for byte, so a collision is at worst a miss, never
//     a wrong body. A write of a colliding key takes the older key's
//     index slot. Put skips the write when a live record of the same key
//     (same lengths and key CRC) is indexed: the serving tiers above rely
//     on key→body determinism.
//   - Both budgets — MaxBytes of disk and MaxIndexBytes of index — are
//     enforced by retiring whole segments in second-chance (CLOCK) order:
//     a read hit sets its segment's referenced bit, and a front segment
//     whose bit is set moves to the back with the bit cleared instead of
//     retiring. A store nobody reads retires oldest-registered first.
//   - Retirement only drops the segment's live index entries and its
//     accounting under the store lock; one background reaper closes and
//     unlinks the file, so no caller waits on an unlink. Readers that hold
//     a segment open pin it (refcount), and the last reader's Close hands
//     the file to the reaper.
//   - The bytes awaiting unlink are bounded by MaxBytes/reapShare. Past
//     the bound a stream tee's Begin and a TryPut are refused (counted),
//     while Put waits, so the directory holds at most MaxBytes plus the
//     bound plus the records being written.
//   - A record whose index slot another record took (a rewrite of its
//     key, a colliding key) or whose CRC failed is dead. Its bytes still
//     count against MaxBytes and leave with their segment when it retires.
//   - Open scans existing segments record by record, truncates at the
//     first torn or CRC-invalid record (crash mid-append), and rebuilds
//     the index with later records winning.
package spill

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"hetero/internal/parallel"
)

const (
	recordHeaderSize = 12

	// DefaultSegmentBytes rolls the shared append segment once it
	// crosses this size.
	DefaultSegmentBytes = 4 << 20

	// DefaultMaxBytes bounds total segment bytes on disk.
	DefaultMaxBytes = 1 << 30

	// DefaultMaxIndexBytes bounds the in-memory index footprint.
	DefaultMaxIndexBytes = 16 << 20

	// indexEntryCost is the accounted in-memory cost of one index
	// entry (map bucket share + entryLoc + per-segment hash slot).
	indexEntryCost = 64

	// maxFieldLen bounds keyLen/bodyLen during scans so a corrupt
	// header cannot drive a giant allocation.
	maxFieldLen = 1 << 30

	// reapShare sets the bound on retired bytes awaiting unlink to
	// MaxBytes/reapShare: 128 MiB under the default budget.
	reapShare = 8
)

// removeFile unlinks a retired file. The reaper is its only caller outside
// recovery; it is a variable so a test can make the filesystem slow.
var removeFile = os.Remove

// Config configures a Store. Zero fields take the defaults above.
type Config struct {
	// Dir is the directory holding segment files. Required; created
	// if missing.
	Dir string
	// MaxBytes bounds total on-disk segment bytes.
	MaxBytes int64
	// MaxIndexBytes bounds the accounted in-memory index bytes.
	MaxIndexBytes int64
	// SegmentBytes is the roll size for the shared append segment.
	SegmentBytes int64
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.MaxBytes <= 0 {
		out.MaxBytes = DefaultMaxBytes
	}
	if out.MaxIndexBytes <= 0 {
		out.MaxIndexBytes = DefaultMaxIndexBytes
	}
	if out.SegmentBytes <= 0 {
		out.SegmentBytes = DefaultSegmentBytes
	}
	return out
}

// Stats is a point-in-time snapshot of store counters.
type Stats struct {
	Hits            uint64
	Misses          uint64
	Writes          uint64
	Rejected        uint64
	Corrupt         uint64
	RetiredSegments uint64
	// Refused counts request-path writes (a stream tee's Begin, a TryPut)
	// refused while ReapBytes was past its bound.
	Refused uint64
	// ReapBytes is the size of the retired files the reaper has yet to
	// unlink.
	ReapBytes     int64
	Segments      int
	Entries       int
	DiskBytes     int64
	DeadBytes     int64
	IndexBytes    int64
	MaxBytes      int64
	MaxIndexBytes int64
}

type entryLoc struct {
	seq     uint64
	off     int64
	keyLen  uint32
	bodyLen uint32
	// keyCRC is the CRC-32 of the stored key (id ++ key), the prefix of the
	// record CRC: Put dedupes only against a record whose key it matches.
	keyCRC uint32
}

func (l entryLoc) recordLen() int64 {
	return recordHeaderSize + int64(l.keyLen) + int64(l.bodyLen)
}

type segment struct {
	seq  uint64
	path string
	f    *os.File
	size int64
	dead int64
	live int
	// hashes remembers which index slots this segment ever owned so
	// retirement can drop them without a full index sweep.
	hashes []uint64
	refs   int
	doomed bool
	// referenced is set by every read hit and cleared when the segment is
	// spared retirement once (second chance).
	referenced atomic.Bool
}

// reapItem is a retired file on its way to the reaper.
type reapItem struct {
	f    *os.File
	path string
	size int64
}

// Store is a bounded append-only segment store. All methods are safe
// for concurrent use.
type Store struct {
	cfg Config

	mu        sync.RWMutex
	segs      map[uint64]*segment
	order     []uint64 // retirement order: the front retires, spared segments rotate to the back
	active    *segment
	index     map[uint64]entryLoc
	nextSeq   uint64
	diskBytes int64
	closed    bool

	hits     atomic.Uint64
	misses   atomic.Uint64
	writes   atomic.Uint64
	rejected atomic.Uint64
	corrupt  atomic.Uint64
	retired  atomic.Uint64

	// The reaper: retired files queue in reapQ for the one goroutine that
	// closes and unlinks them, off st.mu. reapBytes is what they hold on
	// disk; past reapMax, Begin and TryPut refuse and Put waits on
	// reapCond, which the reaper broadcasts after every unlink. reaping
	// turns false once Close has drained the queue.
	reapQ     []reapItem
	reapBytes int64
	reapMax   int64
	reapCond  *sync.Cond
	reaping   bool
	reapDone  chan struct{}
	refused   atomic.Uint64
}

// Open opens (or creates) a store rooted at cfg.Dir, recovering any
// existing segments: each is scanned record by record, truncated at the
// first torn or CRC-invalid record, and its surviving records are
// indexed in sequence order (later records win).
func Open(cfg Config) (*Store, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, errors.New("spill: Config.Dir is required")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("spill: %w", err)
	}
	st := &Store{
		cfg:      cfg,
		segs:     make(map[uint64]*segment),
		index:    make(map[uint64]entryLoc),
		reapMax:  cfg.MaxBytes / reapShare,
		reaping:  true,
		reapDone: make(chan struct{}),
	}
	st.reapCond = sync.NewCond(&st.mu)
	// The reaper runs before recovery, whose budget enforcement retires
	// segments through it.
	go st.reapLoop()
	if err := st.recover(); err != nil {
		st.stopReaper()
		st.closeFiles()
		return nil, err
	}
	return st, nil
}

func segName(seq uint64) string { return fmt.Sprintf("seg-%016x.seg", seq) }

func parseSegName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, ".seg") {
		return 0, false
	}
	seq, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "seg-"), ".seg"), 16, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

func (st *Store) recover() error {
	names, err := os.ReadDir(st.cfg.Dir)
	if err != nil {
		return fmt.Errorf("spill: %w", err)
	}
	var seqs []uint64
	for _, de := range names {
		if seq, ok := parseSegName(de.Name()); ok && !de.IsDir() {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	for _, seq := range seqs {
		path := filepath.Join(st.cfg.Dir, segName(seq))
		f, err := os.OpenFile(path, os.O_RDWR, 0o644)
		if err != nil {
			return fmt.Errorf("spill: %w", err)
		}
		fi, err := f.Stat()
		if err != nil {
			f.Close()
			return fmt.Errorf("spill: %w", err)
		}
		seg := &segment{seq: seq, path: path, f: f}
		validEnd, torn := ScanRecords(f, fi.Size(), func(off int64, keyLen, bodyLen uint32, key []byte) {
			h := hashKey(key[0], key[1:])
			loc := entryLoc{seq: seq, off: off, keyLen: keyLen, bodyLen: bodyLen, keyCRC: crc32.ChecksumIEEE(key)}
			if old, ok := st.index[h]; ok {
				st.markDeadLocked(old)
			}
			st.index[h] = loc
			seg.hashes = append(seg.hashes, h)
			seg.live++
		})
		if torn {
			st.corrupt.Add(1)
		}
		if validEnd < fi.Size() {
			if err := f.Truncate(validEnd); err != nil {
				f.Close()
				return fmt.Errorf("spill: truncating torn tail of %s: %w", path, err)
			}
		}
		seg.size = validEnd
		if seg.size == 0 && seg.live == 0 {
			// Empty or fully torn segment: drop it.
			f.Close()
			os.Remove(path)
			continue
		}
		st.segs[seq] = seg
		st.order = append(st.order, seq)
		st.diskBytes += seg.size
		if seq >= st.nextSeq {
			st.nextSeq = seq + 1
		}
	}
	// Recompute dead bytes: anything not live is dead.
	for _, seg := range st.segs {
		var liveBytes int64
		for _, h := range seg.hashes {
			if loc, ok := st.index[h]; ok && loc.seq == seg.seq {
				liveBytes += loc.recordLen()
			}
		}
		seg.dead = seg.size - liveBytes
	}
	st.mu.Lock()
	st.enforceBudgetsLocked()
	st.mu.Unlock()
	return nil
}

// ScanRecords walks the record framing over r, invoking fn for every
// intact record, and returns the offset of the first torn, oversized,
// or CRC-invalid record (the valid prefix length) plus whether the scan
// stopped early for that reason. The key slice passed to fn is only
// valid for the duration of the call. Exported for the framing fuzzer.
func ScanRecords(r io.ReaderAt, size int64, fn func(off int64, keyLen, bodyLen uint32, key []byte)) (validEnd int64, torn bool) {
	var hdr [recordHeaderSize]byte
	var off int64
	for off < size {
		if size-off < recordHeaderSize {
			return off, true
		}
		if _, err := r.ReadAt(hdr[:], off); err != nil {
			return off, true
		}
		wantCRC := binary.LittleEndian.Uint32(hdr[0:4])
		keyLen := binary.LittleEndian.Uint32(hdr[4:8])
		bodyLen := binary.LittleEndian.Uint32(hdr[8:12])
		if keyLen == 0 || keyLen > maxFieldLen || bodyLen > maxFieldLen {
			return off, true
		}
		recLen := recordHeaderSize + int64(keyLen) + int64(bodyLen)
		if off+recLen > size {
			return off, true
		}
		buf := make([]byte, keyLen+bodyLen)
		if _, err := r.ReadAt(buf, off+recordHeaderSize); err != nil {
			return off, true
		}
		crc := crc32.ChecksumIEEE(buf)
		crc = crc32.Update(crc, crc32.IEEETable, hdr[4:12])
		if crc != wantCRC {
			return off, true
		}
		fn(off, keyLen, bodyLen, buf[:keyLen])
		off += recLen
	}
	return off, false
}

func (st *Store) markDeadLocked(loc entryLoc) {
	if seg, ok := st.segs[loc.seq]; ok {
		seg.dead += loc.recordLen()
		seg.live--
	}
}

func (st *Store) indexBytesLocked() int64 {
	return int64(len(st.index)) * indexEntryCost
}

// Layer is one key namespace of a Store. A record stores its key as the
// layer id byte followed by the layer key, but no Layer method builds that
// concatenation: the hash, the key comparison and the record write all
// read the two parts in place, so a point read copies no key and a write
// copies it once, into the record header buffer. The on-disk format (and
// so recovery) is the same as for a whole store key whose first byte is
// the id.
type Layer struct {
	st *Store
	id byte
}

// Layer returns the namespace whose keys are stored behind the id byte.
func (st *Store) Layer(id byte) Layer { return Layer{st: st, id: id} }

// The whole-key methods below take a store key whose first byte is its
// layer id; they are the Layer methods of that byte. An empty key misses
// (or, for Put and Begin, is rejected).

// Get is Layer(key[0]).Get(key[1:]).
func (st *Store) Get(key string) ([]byte, bool) {
	if key == "" {
		st.misses.Add(1)
		return nil, false
	}
	return st.Layer(key[0]).Get(key[1:])
}

// Put is Layer(key[0]).Put(key[1:], body).
func (st *Store) Put(key string, body []byte) bool {
	if key == "" {
		st.rejected.Add(1)
		return false
	}
	return st.Layer(key[0]).Put(key[1:], body)
}

// OpenVerified is Layer(key[0]).OpenVerified(key[1:]).
func (st *Store) OpenVerified(key string) (*Entry, bool) {
	if key == "" {
		st.misses.Add(1)
		return nil, false
	}
	return st.Layer(key[0]).OpenVerified(key[1:])
}

// Begin is Layer(key[0]).Begin(key[1:]).
func (st *Store) Begin(key string) *Appender {
	if key == "" {
		return nil
	}
	return st.Layer(key[0]).Begin(key[1:])
}

// Put stores body under key, overwriting any previous entry. Entries
// larger than the whole disk budget are rejected. Put never blocks on
// readers of other segments; it appends to the shared active segment.
// While the retired bytes awaiting unlink are past their bound it waits
// for the reaper, so it is for background writers (the evict writer, the
// shutdown flush); a request path uses TryPut.
// The return value reports whether the entry is durably stored (a live
// record of the same key and body length counts: deterministic keys make
// it the same body); false means a rejection or an I/O failure, so callers
// that promise durability — the evict writer, the shutdown flush — can
// count what the store actually dropped.
func (l Layer) Put(key string, body []byte) bool { return l.put(key, body, true) }

// TryPut is Put for a request path: past the unlink bound it refuses the
// write (counted in Stats.Refused) instead of waiting for the reaper.
func (l Layer) TryPut(key string, body []byte) bool { return l.put(key, body, false) }

func (l Layer) put(key string, body []byte, wait bool) bool {
	st := l.st
	h := hashKey(l.id, key)
	kc := keyCRC(l.id, key)
	keyLen := 1 + int64(len(key))
	rec := recordHeaderSize + keyLen + int64(len(body))
	st.mu.Lock()
	defer st.mu.Unlock()
	if rec > st.cfg.MaxBytes || keyLen > maxFieldLen || int64(len(body)) > maxFieldLen {
		if !st.closed {
			st.rejected.Add(1)
		}
		return false
	}
	for {
		if st.closed {
			return false
		}
		// Deterministic keys mean a live record of the same key and body
		// length holds the same body; skip the rewrite. The key CRC tells
		// the same key from another one under the same sampled hash.
		if old, ok := st.index[h]; ok && old.keyCRC == kc && int64(old.keyLen) == keyLen && old.bodyLen == uint32(len(body)) {
			return true
		}
		if st.reapBytes <= st.reapMax {
			break
		}
		if !wait {
			st.refused.Add(1)
			return false
		}
		st.reapCond.Wait()
	}
	ok := st.appendLocked(h, kc, recordHead(l.id, key, kc, body), body)
	st.enforceBudgetsLocked()
	return ok
}

// keyCRC is the CRC-32 of the stored key id ++ key, which it copies
// through a pooled buffer rather than converting key to a new []byte.
func keyCRC(id byte, key string) uint32 {
	bp := chunkBufs.Get().(*[]byte)
	defer chunkBufs.Put(bp)
	buf := *bp
	buf[0] = id
	n := copy(buf[1:], key)
	crc := crc32.ChecksumIEEE(buf[:1+n])
	for key = key[n:]; key != ""; key = key[n:] {
		n = copy(buf, key)
		crc = crc32.Update(crc, crc32.IEEETable, buf[:n])
	}
	return crc
}

// recordHead frames a record's header and stored key (id ++ key) in one
// buffer, CRC filled in over the key (continued from its keyCRC kc), the
// body and the lengths.
func recordHead(id byte, key string, kc uint32, body []byte) []byte {
	head := make([]byte, recordHeaderSize+1+len(key))
	binary.LittleEndian.PutUint32(head[4:8], uint32(1+len(key)))
	binary.LittleEndian.PutUint32(head[8:12], uint32(len(body)))
	head[recordHeaderSize] = id
	copy(head[recordHeaderSize+1:], key)
	crc := crc32.Update(kc, crc32.IEEETable, body)
	crc = crc32.Update(crc, crc32.IEEETable, head[4:12])
	binary.LittleEndian.PutUint32(head[0:4], crc)
	return head
}

// appendLocked appends one framed record — head (header and stored key,
// as recordHead builds it) then body — and reports whether it was written;
// a rejected or failed write is counted.
func (st *Store) appendLocked(h uint64, kc uint32, head, body []byte) bool {
	seg, err := st.activeLocked()
	if err != nil {
		st.rejected.Add(1)
		return false
	}
	off := seg.size
	if _, err := seg.f.WriteAt(head, off); err != nil {
		st.rejected.Add(1)
		return false
	}
	if _, err := seg.f.WriteAt(body, off+int64(len(head))); err != nil {
		st.rejected.Add(1)
		return false
	}
	keyLen := uint32(len(head) - recordHeaderSize)
	rec := int64(len(head)) + int64(len(body))
	seg.size += rec
	st.diskBytes += rec
	if old, ok := st.index[h]; ok {
		st.markDeadLocked(old)
	}
	st.index[h] = entryLoc{seq: seg.seq, off: off, keyLen: keyLen, bodyLen: uint32(len(body)), keyCRC: kc}
	seg.hashes = append(seg.hashes, h)
	seg.live++
	st.writes.Add(1)
	if seg.size >= st.cfg.SegmentBytes {
		st.active = nil
	}
	return true
}

func (st *Store) activeLocked() (*segment, error) {
	if st.active != nil {
		return st.active, nil
	}
	seq := st.nextSeq
	st.nextSeq++
	path := filepath.Join(st.cfg.Dir, segName(seq))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	seg := &segment{seq: seq, path: path, f: f}
	st.segs[seq] = seg
	st.order = append(st.order, seq)
	st.active = seg
	return seg, nil
}

// enforceBudgetsLocked retires segments until both budgets hold, in
// second-chance (CLOCK) order: a front segment a read has hit since it last
// came round moves to the back with its bit cleared instead of retiring.
// It spares at most one lap of segments per call, so it ends even while
// readers keep setting bits, and a store whose every segment is hot still
// retires oldest first after that lap.
func (st *Store) enforceBudgetsLocked() {
	for spared := 0; (st.diskBytes > st.cfg.MaxBytes || st.indexBytesLocked() > st.cfg.MaxIndexBytes) && len(st.order) > 0; {
		seq := st.order[0]
		if spared < len(st.order) && st.segs[seq].referenced.Swap(false) {
			copy(st.order, st.order[1:])
			st.order[len(st.order)-1] = seq
			spared++
			continue
		}
		st.retireLocked(seq)
	}
}

// retireLocked removes the segment from the store accounting and index and
// hands its file to the reaper, unless a reader holds it pinned, in which
// case the last Close hands it over. Retirement only happens on an open
// store, whose reaper always takes the file.
func (st *Store) retireLocked(seq uint64) {
	seg, ok := st.segs[seq]
	if !ok {
		return
	}
	for i, s := range st.order {
		if s == seq {
			st.order = append(st.order[:i], st.order[i+1:]...)
			break
		}
	}
	for _, h := range seg.hashes {
		if loc, ok := st.index[h]; ok && loc.seq == seq {
			delete(st.index, h)
		}
	}
	delete(st.segs, seq)
	st.diskBytes -= seg.size
	if st.active == seg {
		st.active = nil
	}
	st.retired.Add(1)
	if seg.refs > 0 {
		seg.doomed = true
		return
	}
	st.reapLocked(seg.f, seg.path, seg.size)
}

// reapLocked queues a file no index entry reaches for the reaper and
// reports whether the reaper took it. Once Close has drained the reaper it
// takes nothing, and the caller unlinks the file itself after releasing
// st.mu (see release).
func (st *Store) reapLocked(f *os.File, path string, size int64) bool {
	if !st.reaping {
		return false
	}
	st.reapQ = append(st.reapQ, reapItem{f: f, path: path, size: size})
	st.reapBytes += size
	st.reapCond.Broadcast()
	return true
}

// release is reapLocked for a caller that does not hold st.mu: after
// Close, when no request is served and no reaper runs, it closes and
// unlinks the file itself.
func (st *Store) release(f *os.File, path string, size int64) {
	st.mu.Lock()
	queued := st.reapLocked(f, path, size)
	st.mu.Unlock()
	if !queued {
		f.Close()
		removeFile(path)
	}
}

// reapLoop is the reaper: it closes and unlinks queued files one at a time
// without st.mu, and exits once the store is closed and the queue empty.
func (st *Store) reapLoop() {
	defer close(st.reapDone)
	st.mu.Lock()
	defer st.mu.Unlock()
	for {
		for len(st.reapQ) == 0 && !st.closed {
			st.reapCond.Wait()
		}
		if len(st.reapQ) == 0 {
			st.reaping = false
			return
		}
		it := st.reapQ[0]
		st.reapQ[0] = reapItem{}
		st.reapQ = st.reapQ[1:]
		st.mu.Unlock()
		it.f.Close()
		removeFile(it.path)
		st.mu.Lock()
		st.reapBytes -= it.size
		st.reapCond.Broadcast()
	}
}

// stopReaper closes the store to new work and waits for the reaper to
// unlink everything queued. It reports whether the store was open.
func (st *Store) stopReaper() bool {
	st.mu.Lock()
	wasOpen := !st.closed
	st.closed = true
	st.reapCond.Broadcast()
	st.mu.Unlock()
	<-st.reapDone
	return wasOpen
}

// Get returns a copy of the body stored under key, of its exact size: the
// record is read whole into a pooled buffer, verified there, and only its
// body is copied out, so a caller that keeps the body (a memory cache
// charges len(key)+len(body)) pins no record header or stored key. A CRC
// failure or a hash-collision key mismatch reads as a miss; corruption
// additionally drops the index entry so the slot can be refilled.
func (l Layer) Get(key string) ([]byte, bool) {
	st := l.st
	h := hashKey(l.id, key)
	st.mu.RLock()
	loc, ok := st.index[h]
	if !ok || st.closed {
		st.mu.RUnlock()
		st.misses.Add(1)
		return nil, false
	}
	seg := st.segs[loc.seq]
	bp := getRecordBuf(int(loc.recordLen()))
	defer putRecordBuf(bp)
	buf := *bp
	_, err := seg.f.ReadAt(buf, loc.off)
	st.mu.RUnlock()
	if err != nil || !verifyRecordBuf(buf) {
		st.dropCorrupt(h, loc)
		st.misses.Add(1)
		return nil, false
	}
	stored := buf[recordHeaderSize : recordHeaderSize+int(loc.keyLen)]
	if len(stored) != 1+len(key) || stored[0] != l.id || string(stored[1:]) != key {
		// Sampled-hash collision: treat as a miss, keep the entry.
		st.misses.Add(1)
		return nil, false
	}
	seg.referenced.Store(true)
	st.hits.Add(1)
	// bytes.Clone copies without zeroing first, and never returns nil.
	return bytes.Clone(buf[recordHeaderSize+int(loc.keyLen):]), true
}

// recordBufs recycles Get's record buffers (*[]byte). A buffer over
// maxPooledRecord is not put back, so one large read pins nothing.
var recordBufs sync.Pool

const maxPooledRecord = DefaultSegmentBytes

// getRecordBuf returns a buffer of length n, pooled when one is large
// enough; putRecordBuf hands it back.
func getRecordBuf(n int) *[]byte {
	if bp, ok := recordBufs.Get().(*[]byte); ok && cap(*bp) >= n {
		*bp = (*bp)[:n]
		return bp
	}
	buf := make([]byte, n)
	return &buf
}

func putRecordBuf(bp *[]byte) {
	if cap(*bp) <= maxPooledRecord {
		recordBufs.Put(bp)
	}
}

// verifyRecordBuf checks header lengths and CRC of a full record buffer.
// Key equality is checked separately so a collision is not "corrupt".
func verifyRecordBuf(buf []byte) bool {
	if len(buf) < recordHeaderSize {
		return false
	}
	keyLen := binary.LittleEndian.Uint32(buf[4:8])
	bodyLen := binary.LittleEndian.Uint32(buf[8:12])
	if recordHeaderSize+int64(keyLen)+int64(bodyLen) != int64(len(buf)) {
		return false
	}
	crc := crc32.ChecksumIEEE(buf[recordHeaderSize:])
	crc = crc32.Update(crc, crc32.IEEETable, buf[4:12])
	return crc == binary.LittleEndian.Uint32(buf[0:4])
}

func (st *Store) dropCorrupt(h uint64, loc entryLoc) {
	st.corrupt.Add(1)
	st.mu.Lock()
	if cur, ok := st.index[h]; ok && cur == loc {
		delete(st.index, h)
		st.markDeadLocked(loc)
	}
	st.mu.Unlock()
}

// Entry is a pinned, CRC-verified handle onto one stored record,
// suitable for streaming the body in O(chunk) memory. Close releases
// the pin; a retired segment's last Close hands its file to the reaper.
type Entry struct {
	st   *Store
	seg  *segment
	loc  entryLoc
	once sync.Once
}

// BodyLen reports the stored body length.
func (e *Entry) BodyLen() int64 { return int64(e.loc.bodyLen) }

// ReadBodyAt reads into p from the body at offset off.
func (e *Entry) ReadBodyAt(p []byte, off int64) (int, error) {
	if off < 0 || off >= int64(e.loc.bodyLen) {
		return 0, io.EOF
	}
	if rem := int64(e.loc.bodyLen) - off; int64(len(p)) > rem {
		p = p[:rem]
	}
	return e.seg.f.ReadAt(p, e.loc.off+recordHeaderSize+int64(e.loc.keyLen)+off)
}

// WriteTo writes the body to w. It reads through a file of its own, opened
// by path on the pinned segment and positioned at the body, so a sink that
// implements io.ReaderFrom over a socket (a net/http response framed by
// Content-Length) hands the copy to sendfile(2) and the body never passes
// through user space. A pinned segment's file is neither unlinked nor
// reused, so the path names the record OpenVerified checked. If the open
// fails, the body is copied with ReadBodyAt in bounded chunks instead. A
// body shorter on disk than BodyLen is an io.ErrUnexpectedEOF.
func (e *Entry) WriteTo(w io.Writer) (int64, error) {
	bodyLen := int64(e.loc.bodyLen)
	if f, err := os.Open(e.seg.path); err == nil {
		defer f.Close()
		if _, err := f.Seek(e.loc.off+recordHeaderSize+int64(e.loc.keyLen), io.SeekStart); err == nil {
			n, err := io.Copy(w, &io.LimitedReader{R: f, N: bodyLen})
			if err == nil && n < bodyLen {
				err = io.ErrUnexpectedEOF
			}
			return n, err
		}
	}
	bp := chunkBufs.Get().(*[]byte)
	defer chunkBufs.Put(bp)
	var n int64
	for n < bodyLen {
		m, err := e.ReadBodyAt(*bp, n)
		if m > 0 {
			wn, werr := w.Write((*bp)[:m])
			n += int64(wn)
			if werr != nil {
				return n, werr
			}
		}
		if err != nil && n < bodyLen {
			return n, err
		}
	}
	return n, nil
}

// Close releases the segment pin.
func (e *Entry) Close() {
	e.once.Do(func() {
		st := e.st
		st.mu.Lock()
		e.seg.refs--
		last := e.seg.doomed && e.seg.refs == 0
		st.mu.Unlock()
		if last {
			st.release(e.seg.f, e.seg.path, e.seg.size)
		}
	})
}

// OpenVerified pins the record stored under key and fully verifies its
// CRC and key bytes before returning, so no corrupt byte can reach a
// streaming consumer. It returns false on miss, collision, or corruption.
func (l Layer) OpenVerified(key string) (*Entry, bool) { return openVerified(l, key) }

// OpenVerifiedBytes is OpenVerified for a []byte key, which it reads in
// place and does not keep: the caller may reuse it once this returns.
func (l Layer) OpenVerifiedBytes(key []byte) (*Entry, bool) { return openVerified(l, key) }

func openVerified[K string | []byte](l Layer, key K) (*Entry, bool) {
	st := l.st
	h := hashKey(l.id, key)
	st.mu.Lock()
	loc, ok := st.index[h]
	if !ok || st.closed {
		st.mu.Unlock()
		st.misses.Add(1)
		return nil, false
	}
	seg := st.segs[loc.seq]
	seg.refs++
	st.mu.Unlock()
	ent := &Entry{st: st, seg: seg, loc: loc}
	ok, corrupt := verifyEntryChunked(seg.f, loc, l.id, key)
	if !ok {
		ent.Close()
		if corrupt {
			st.dropCorrupt(h, loc)
		}
		st.misses.Add(1)
		return nil, false
	}
	seg.referenced.Store(true)
	st.hits.Add(1)
	return ent, true
}

const (
	// verifyChunk is the read size of the pre-verify, and of WriteTo's
	// fallback copy.
	verifyChunk = 64 << 10

	// verifyPartBytes splits the pre-verify: a record's key and body are
	// checked in parts of this many bytes on the worker pool, so a record
	// up to this size verifies serially on the caller's goroutine.
	verifyPartBytes = 1 << 20
)

// chunkBufs recycles verifyChunk-byte read buffers (*[]byte).
var chunkBufs = sync.Pool{New: func() any {
	b := make([]byte, verifyChunk)
	return &b
}}

// verifyEntryChunked re-derives the record CRC in bounded reads and
// compares the stored key against id ++ key. Records over verifyPartBytes
// are split into parts verified concurrently (parallel.MapChunks), each
// CRCing its bytes and comparing its share of the key; the part CRCs are
// folded in order with crc32Combine, so the result is the serial one.
// corrupt reports whether the failure was CRC/framing (as opposed to a
// benign hash collision).
func verifyEntryChunked[K string | []byte](f *os.File, loc entryLoc, id byte, key K) (ok, corrupt bool) {
	var hdr [recordHeaderSize]byte
	if _, err := f.ReadAt(hdr[:], loc.off); err != nil {
		return false, true
	}
	if binary.LittleEndian.Uint32(hdr[4:8]) != loc.keyLen ||
		binary.LittleEndian.Uint32(hdr[8:12]) != loc.bodyLen {
		return false, true
	}
	keyLen := int64(loc.keyLen)
	checkKey := keyLen == 1+int64(len(key))
	total := keyLen + int64(loc.bodyLen)
	parts := parallel.MapChunks(0, int(total), verifyPartBytes, func(lo, hi int) verifyPart {
		return verifyRange(f, loc.off+recordHeaderSize, int64(lo), int64(hi), keyLen, checkKey, id, key)
	})
	var crc uint32
	keyMatches := checkKey
	for _, p := range parts {
		if p.readErr {
			return false, true
		}
		crc = crc32Combine(crc, p.crc, p.n)
		keyMatches = keyMatches && p.keyOK
	}
	crc = crc32.Update(crc, crc32.IEEETable, hdr[4:12])
	if crc != binary.LittleEndian.Uint32(hdr[0:4]) {
		return false, true
	}
	return keyMatches, false
}

// verifyPart is one part's share of the pre-verify.
type verifyPart struct {
	n       int64  // bytes covered
	crc     uint32 // their CRC-32, unconditioned by what precedes them
	keyOK   bool   // the stored key bytes among them match
	readErr bool
}

// verifyRange CRCs the record bytes [lo, hi) after the header (base is the
// file offset of byte 0, the stored key's id byte) and, when checkKey,
// compares those of them that belong to the stored key (keyLen bytes: the
// id, then key).
func verifyRange[K string | []byte](f *os.File, base, lo, hi, keyLen int64, checkKey bool, id byte, key K) verifyPart {
	bp := chunkBufs.Get().(*[]byte)
	defer chunkBufs.Put(bp)
	buf := *bp
	p := verifyPart{n: hi - lo, keyOK: true}
	for at := lo; at < hi; {
		n := min(int64(len(buf)), hi-at)
		if _, err := f.ReadAt(buf[:n], base+at); err != nil {
			p.readErr = true
			return p
		}
		p.crc = crc32.Update(p.crc, crc32.IEEETable, buf[:n])
		if checkKey && p.keyOK && at < keyLen {
			// Stored key byte i is the id for i = 0, else key[i-1].
			stored, from := buf[:min(keyLen-at, n)], at
			if from == 0 {
				p.keyOK = stored[0] == id
				stored, from = stored[1:], 1
			}
			p.keyOK = p.keyOK && string(stored) == string(key[from-1:from-1+int64(len(stored))])
		}
		at += n
	}
	return p
}

// Appender streams one record into its own private segment, committing
// it atomically into the index at Commit. No store lock is held while
// the caller writes, so a client-paced stream never blocks the store.
type Appender struct {
	st     *Store
	f      *os.File
	path   string
	seq    uint64
	h      uint64
	keyLen uint32
	keyCRC uint32
	size   int64
	crc    uint32
	err    error
	done   bool
}

// Begin starts a streamed append for key. Returns nil if the store is
// closed, the key is invalid, the segment file cannot be created, or the
// retired bytes awaiting unlink are past their bound (counted in
// Stats.Refused): a stream tee runs on a request path, so it is refused
// rather than made to wait for the reaper.
func (l Layer) Begin(key string) *Appender { return begin(l, key) }

// BeginBytes is Begin for a []byte key, which it copies into the record
// head and does not keep: the caller may reuse it once this returns.
func (l Layer) BeginBytes(key []byte) *Appender { return begin(l, key) }

func begin[K string | []byte](l Layer, key K) *Appender {
	st := l.st
	if 1+int64(len(key)) > maxFieldLen {
		return nil
	}
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return nil
	}
	if st.reapBytes > st.reapMax {
		st.mu.Unlock()
		st.refused.Add(1)
		return nil
	}
	seq := st.nextSeq
	st.nextSeq++
	st.mu.Unlock()
	path := filepath.Join(st.cfg.Dir, segName(seq))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil
	}
	ap := &Appender{st: st, f: f, path: path, seq: seq, h: hashKey(l.id, key), keyLen: uint32(1 + len(key))}
	// Placeholder header; CRC and bodyLen are patched at Commit. A
	// crash before Commit leaves an invalid record that recovery
	// truncates away.
	head := make([]byte, recordHeaderSize+1+len(key))
	head[recordHeaderSize] = l.id
	copy(head[recordHeaderSize+1:], key)
	if _, err := f.WriteAt(head, 0); err != nil {
		ap.err = err
	}
	ap.size = int64(len(head))
	ap.keyCRC = crc32.ChecksumIEEE(head[recordHeaderSize:])
	ap.crc = ap.keyCRC
	return ap
}

// Write appends body bytes. It never fails the caller's stream: errors
// are remembered and surface as a failed Commit.
func (ap *Appender) Write(p []byte) (int, error) {
	if ap.err == nil {
		if ap.size+int64(len(p))-recordHeaderSize-int64(ap.keyLen) > maxFieldLen {
			ap.err = errors.New("spill: body too large")
		} else if _, err := ap.f.WriteAt(p, ap.size); err != nil {
			ap.err = err
		} else {
			ap.size += int64(len(p))
			ap.crc = crc32.Update(ap.crc, crc32.IEEETable, p)
		}
	}
	return len(p), nil
}

// Commit patches the header and registers the record in the index. The
// record becomes visible atomically; on any prior write error the
// appender aborts instead.
func (ap *Appender) Commit() bool {
	if ap.done {
		return false
	}
	bodyLen := ap.size - recordHeaderSize - int64(ap.keyLen)
	if ap.err != nil || bodyLen < 0 {
		ap.Abort()
		return false
	}
	var hdr [recordHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[4:8], ap.keyLen)
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(bodyLen))
	crc := crc32.Update(ap.crc, crc32.IEEETable, hdr[4:12])
	binary.LittleEndian.PutUint32(hdr[0:4], crc)
	if _, err := ap.f.WriteAt(hdr[:], 0); err != nil {
		ap.Abort()
		return false
	}
	ap.done = true
	st := ap.st
	rec := ap.size
	st.mu.Lock()
	if st.closed || rec > st.cfg.MaxBytes {
		if !st.closed {
			st.rejected.Add(1)
		}
		st.mu.Unlock()
		st.release(ap.f, ap.path, rec)
		return false
	}
	seg := &segment{
		seq: ap.seq, path: ap.path, f: ap.f,
		size: rec, live: 1,
		hashes: []uint64{ap.h},
	}
	st.segs[ap.seq] = seg
	st.order = append(st.order, ap.seq)
	st.diskBytes += rec
	if old, ok := st.index[ap.h]; ok {
		st.markDeadLocked(old)
	}
	st.index[ap.h] = entryLoc{seq: ap.seq, off: 0, keyLen: ap.keyLen, bodyLen: uint32(bodyLen), keyCRC: ap.keyCRC}
	st.writes.Add(1)
	st.enforceBudgetsLocked()
	st.mu.Unlock()
	return true
}

// Abort discards the in-progress record; the reaper unlinks its private
// segment file.
func (ap *Appender) Abort() {
	if ap.done {
		return
	}
	ap.done = true
	ap.st.release(ap.f, ap.path, ap.size)
}

// Stats returns a snapshot of counters and sizes.
func (st *Store) Stats() Stats {
	st.mu.RLock()
	var dead int64
	for _, seg := range st.segs {
		dead += seg.dead
	}
	s := Stats{
		Segments:      len(st.segs),
		Entries:       len(st.index),
		DiskBytes:     st.diskBytes,
		DeadBytes:     dead,
		IndexBytes:    st.indexBytesLocked(),
		MaxBytes:      st.cfg.MaxBytes,
		MaxIndexBytes: st.cfg.MaxIndexBytes,
		ReapBytes:     st.reapBytes,
	}
	st.mu.RUnlock()
	s.Hits = st.hits.Load()
	s.Misses = st.misses.Load()
	s.Writes = st.writes.Load()
	s.Rejected = st.rejected.Load()
	s.Corrupt = st.corrupt.Load()
	s.RetiredSegments = st.retired.Load()
	s.Refused = st.refused.Load()
	return s
}

// closeFiles closes every live segment file, after the store is closed:
// the files are collected under st.mu and closed without it.
func (st *Store) closeFiles() {
	st.mu.Lock()
	files := make([]*os.File, 0, len(st.segs))
	for _, seg := range st.segs {
		files = append(files, seg.f)
	}
	st.mu.Unlock()
	for _, f := range files {
		f.Close()
	}
}

// Close waits for the reaper to unlink every retired file and closes all
// segment files. A Put waiting for the reaper returns false. Data on disk
// remains valid for a later Open.
func (st *Store) Close() error {
	if !st.stopReaper() {
		return nil
	}
	st.closeFiles()
	return nil
}

// hashKey hashes the stored key id ++ key without building it: FNV-1a
// over every byte for stored keys up to hashSampleLimit bytes, and over
// the first and last 256 bytes plus strided middle samples for longer ones
// (a sample of its own, not the memory caches' hash). Recovery hashes a
// record's stored key bytes as hashKey(stored[0], stored[1:]), so a key
// hashes the same whether it was written, read or recovered. Collisions
// are safe: reads compare the stored key byte for byte, and Put's dedupe
// also matches the key CRC.
const (
	fnvOffset64     = 14695981039346656037
	fnvPrime64      = 1099511628211
	hashSampleLimit = 1024
)

func hashKey[K string | []byte](id byte, key K) uint64 {
	h := (uint64(fnvOffset64) ^ uint64(id)) * fnvPrime64
	// n counts the stored key; its byte i (i ≥ 1) is key[i-1].
	n := 1 + len(key)
	if n <= hashSampleLimit {
		for i := 0; i < len(key); i++ {
			h ^= uint64(key[i])
			h *= fnvPrime64
		}
		return h
	}
	for i := 1; i < 256; i++ {
		h ^= uint64(key[i-1])
		h *= fnvPrime64
	}
	stride := (n - 512) / 512
	if stride < 1 {
		stride = 1
	}
	for i := 256; i < n-256; i += stride {
		h ^= uint64(key[i-1])
		h *= fnvPrime64
	}
	for i := n - 256; i < n; i++ {
		h ^= uint64(key[i-1])
		h *= fnvPrime64
	}
	h ^= uint64(n)
	h *= fnvPrime64
	return h
}
