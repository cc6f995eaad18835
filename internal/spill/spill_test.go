package spill

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func openTest(t *testing.T, cfg Config) *Store {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	st, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func TestPutGetRoundtrip(t *testing.T) {
	st := openTest(t, Config{})
	for i := 0; i < 100; i++ {
		st.Put(fmt.Sprintf("key-%d", i), []byte(fmt.Sprintf("body-%d-%s", i, strings.Repeat("x", i))))
	}
	for i := 0; i < 100; i++ {
		got, ok := st.Get(fmt.Sprintf("key-%d", i))
		if !ok {
			t.Fatalf("key-%d: miss", i)
		}
		want := fmt.Sprintf("body-%d-%s", i, strings.Repeat("x", i))
		if string(got) != want {
			t.Fatalf("key-%d: got %q want %q", i, got, want)
		}
	}
	if _, ok := st.Get("absent"); ok {
		t.Fatal("absent key hit")
	}
	s := st.Stats()
	if s.Hits != 100 || s.Misses != 1 || s.Writes != 100 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestOverwriteWins(t *testing.T) {
	st := openTest(t, Config{})
	st.Put("k", []byte("one"))
	st.Put("k", []byte("three")) // different length → rewritten
	got, ok := st.Get("k")
	if !ok || string(got) != "three" {
		t.Fatalf("got %q ok=%v", got, ok)
	}
	// Same-length overwrite is skipped (deterministic bodies).
	st.Put("k", []byte("THREE"))
	got, _ = st.Get("k")
	if string(got) != "three" {
		t.Fatalf("same-length overwrite should be a no-op, got %q", got)
	}
}

// TestCollidingKeyIsWritten puts two keys of equal lengths under one
// sampled hash: the second must be written and served, not deduped against
// the first's record.
func TestCollidingKeyIsWritten(t *testing.T) {
	st := openTest(t, Config{})
	l := st.Layer('c')
	k1 := strings.Repeat("a", 2000)
	k2 := k1[:256] + "b" + k1[257:] // stored byte 257: skipped by the stride-2 middle sample
	if hashKey('c', k1) != hashKey('c', k2) {
		t.Fatal("k1 and k2 no longer collide under hashKey: pick a byte the sample skips")
	}
	b1, b2 := bytes.Repeat([]byte("1"), 100), bytes.Repeat([]byte("2"), 100)
	if !l.Put(k1, b1) {
		t.Fatal("Put(k1) failed")
	}
	if !l.Put(k2, b2) {
		t.Fatal("Put(k2) failed")
	}
	if s := st.Stats(); s.Writes != 2 {
		t.Fatalf("writes = %d, want 2: Put(k2) was deduped against k1", s.Writes)
	}
	if got, ok := l.Get(k2); !ok || !bytes.Equal(got, b2) {
		t.Fatalf("Get(k2) = %q, %v; want its own body", got, ok)
	}
	// k2 took k1's index slot: k1 is a miss, and its record is dead.
	if _, ok := l.Get(k1); ok {
		t.Fatal("Get(k1) hit after a colliding Put(k2) took its slot")
	}
	if s := st.Stats(); s.DeadBytes == 0 {
		t.Fatalf("k1's record not counted dead: %+v", s)
	}
}

func TestDiskBudgetRetiresWholeSegments(t *testing.T) {
	st := openTest(t, Config{SegmentBytes: 4 << 10, MaxBytes: 16 << 10})
	body := bytes.Repeat([]byte("b"), 1024)
	for i := 0; i < 64; i++ {
		st.Put(fmt.Sprintf("key-%04d", i), body)
	}
	s := st.Stats()
	if s.DiskBytes > 16<<10 {
		t.Fatalf("disk bytes %d over budget", s.DiskBytes)
	}
	if s.RetiredSegments == 0 {
		t.Fatal("expected whole-segment retirement")
	}
	// Newest keys must survive, oldest must be gone.
	if _, ok := st.Get("key-0063"); !ok {
		t.Fatal("newest key evicted")
	}
	if _, ok := st.Get("key-0000"); ok {
		t.Fatal("oldest key survived a full-budget sweep")
	}
}

func TestIndexBudgetRetires(t *testing.T) {
	// Index budget of 10 entries worth; write 100 tiny keys.
	st := openTest(t, Config{SegmentBytes: 1 << 10, MaxIndexBytes: 10 * indexEntryCost})
	for i := 0; i < 100; i++ {
		st.Put(fmt.Sprintf("key-%04d", i), []byte("v"))
	}
	s := st.Stats()
	if s.IndexBytes > 10*indexEntryCost {
		t.Fatalf("index bytes %d over budget %d", s.IndexBytes, 10*indexEntryCost)
	}
	if s.RetiredSegments == 0 {
		t.Fatal("expected retirement under index pressure")
	}
}

func TestOversizedEntryRejected(t *testing.T) {
	st := openTest(t, Config{MaxBytes: 1 << 10})
	st.Put("big", bytes.Repeat([]byte("x"), 2<<10))
	if _, ok := st.Get("big"); ok {
		t.Fatal("over-budget entry stored")
	}
	if st.Stats().Rejected != 1 {
		t.Fatalf("rejected = %d", st.Stats().Rejected)
	}
}

func TestReopenRecoversIndex(t *testing.T) {
	dir := t.TempDir()
	st := openTest(t, Config{Dir: dir})
	for i := 0; i < 20; i++ {
		st.Put(fmt.Sprintf("key-%d", i), []byte(fmt.Sprintf("val-%d", i)))
	}
	st.Put("key-3", []byte("replacement")) // later record must win
	st.Close()

	st2 := openTest(t, Config{Dir: dir})
	for i := 0; i < 20; i++ {
		want := fmt.Sprintf("val-%d", i)
		if i == 3 {
			want = "replacement"
		}
		got, ok := st2.Get(fmt.Sprintf("key-%d", i))
		if !ok || string(got) != want {
			t.Fatalf("key-%d after reopen: got %q ok=%v want %q", i, got, ok, want)
		}
	}
}

// TestCrashRecoveryTruncatesTornTail simulates a crash mid-append: a
// trailing partial record (and a CRC-corrupted one) must be truncated
// on reopen, with every earlier record recovered intact.
func TestCrashRecoveryTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	st := openTest(t, Config{Dir: dir})
	for i := 0; i < 10; i++ {
		st.Put(fmt.Sprintf("key-%d", i), []byte(fmt.Sprintf("val-%d", i)))
	}
	st.Close()

	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	if len(segs) == 0 {
		t.Fatal("no segment files")
	}
	// Append a torn record: a header promising more bytes than exist.
	f, err := os.OpenFile(segs[0], os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	var hdr [recordHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[4:8], 100)
	binary.LittleEndian.PutUint32(hdr[8:12], 100000)
	if _, err := f.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("partial")); err != nil {
		t.Fatal(err)
	}
	f.Close()

	st2 := openTest(t, Config{Dir: dir})
	for i := 0; i < 10; i++ {
		got, ok := st2.Get(fmt.Sprintf("key-%d", i))
		if !ok || string(got) != fmt.Sprintf("val-%d", i) {
			t.Fatalf("key-%d lost after torn-tail recovery (got %q ok=%v)", i, got, ok)
		}
	}
	if st2.Stats().Corrupt == 0 {
		t.Fatal("torn tail not counted")
	}
	// The torn bytes must be gone from disk so a fresh append is clean.
	fi, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	st2.Put("after-crash", []byte("ok"))
	if got, ok := st2.Get("after-crash"); !ok || string(got) != "ok" {
		t.Fatal("append after recovery failed")
	}
	_ = fi
}

func TestBitFlipReadsAsMiss(t *testing.T) {
	dir := t.TempDir()
	st := openTest(t, Config{Dir: dir})
	body := bytes.Repeat([]byte("payload-"), 512)
	st.Put("victim", body)

	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	raw, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(segs[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get("victim"); ok {
		t.Fatal("corrupt record served")
	}
	if st.Stats().Corrupt == 0 {
		t.Fatal("corruption not counted")
	}
	// The slot must be refillable after the drop.
	st.Put("victim", body)
	if got, ok := st.Get("victim"); !ok || !bytes.Equal(got, body) {
		t.Fatal("refill after corruption failed")
	}
}

func TestAppenderCommitAndAbort(t *testing.T) {
	dir := t.TempDir()
	st := openTest(t, Config{Dir: dir})
	ap := st.Begin("streamed")
	if ap == nil {
		t.Fatal("Begin returned nil")
	}
	ap.Write([]byte("hello "))
	ap.Write([]byte("world"))
	if !ap.Commit() {
		t.Fatal("Commit failed")
	}
	got, ok := st.Get("streamed")
	if !ok || string(got) != "hello world" {
		t.Fatalf("got %q ok=%v", got, ok)
	}

	ap2 := st.Begin("aborted")
	ap2.Write([]byte("junk"))
	ap2.Abort()
	if _, ok := st.Get("aborted"); ok {
		t.Fatal("aborted record visible")
	}
	// Aborted private segment file must be unlinked (by the reaper).
	waitReaped(t, st)
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	for _, p := range segs {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() == 0 {
			t.Fatalf("zero-byte leftover segment %s", p)
		}
	}
}

func TestAppenderSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	st := openTest(t, Config{Dir: dir})
	ap := st.Begin("k")
	ap.Write(bytes.Repeat([]byte("z"), 10000))
	ap.Commit()
	st.Close()
	st2 := openTest(t, Config{Dir: dir})
	got, ok := st2.Get("k")
	if !ok || len(got) != 10000 {
		t.Fatalf("streamed record lost on reopen (ok=%v len=%d)", ok, len(got))
	}
}

// An uncommitted appender file left by a crash must be dropped at Open.
func TestUncommittedAppenderTruncatedOnOpen(t *testing.T) {
	dir := t.TempDir()
	st := openTest(t, Config{Dir: dir})
	st.Put("good", []byte("v"))
	ap := st.Begin("half")
	ap.Write([]byte("body bytes"))
	// Simulate crash: no Commit, no Abort. Close store underneath.
	st.Close()

	st2 := openTest(t, Config{Dir: dir})
	if _, ok := st2.Get("half"); ok {
		t.Fatal("uncommitted record visible after reopen")
	}
	if got, ok := st2.Get("good"); !ok || string(got) != "v" {
		t.Fatal("committed record lost")
	}
}

func TestOpenVerifiedStreamsBody(t *testing.T) {
	st := openTest(t, Config{})
	body := bytes.Repeat([]byte("0123456789abcdef"), 64<<10/16*3) // ~192 KiB, > chunk
	st.Put("k", body)
	ent, ok := st.OpenVerified("k")
	if !ok {
		t.Fatal("OpenVerified miss")
	}
	defer ent.Close()
	if ent.BodyLen() != int64(len(body)) {
		t.Fatalf("BodyLen = %d want %d", ent.BodyLen(), len(body))
	}
	out := make([]byte, 0, len(body))
	buf := make([]byte, 4096)
	var off int64
	for off < ent.BodyLen() {
		n, err := ent.ReadBodyAt(buf, off)
		if n == 0 {
			t.Fatalf("ReadBodyAt stalled at %d: %v", off, err)
		}
		out = append(out, buf[:n]...)
		off += int64(n)
	}
	if !bytes.Equal(out, body) {
		t.Fatal("streamed body differs")
	}
}

func TestOpenVerifiedRejectsCorrupt(t *testing.T) {
	dir := t.TempDir()
	st := openTest(t, Config{Dir: dir})
	st.Put("k", bytes.Repeat([]byte("x"), 100000))
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	raw, _ := os.ReadFile(segs[0])
	raw[len(raw)-5] ^= 0x01
	os.WriteFile(segs[0], raw, 0o644)
	if _, ok := st.OpenVerified("k"); ok {
		t.Fatal("corrupt record passed chunked verification")
	}
}

// A reader pin must keep a retired segment readable until Close.
func TestRetiredSegmentPinnedByReader(t *testing.T) {
	dir := t.TempDir()
	st := openTest(t, Config{Dir: dir, SegmentBytes: 1 << 10, MaxBytes: 1 << 20})
	body := bytes.Repeat([]byte("p"), 2048)
	st.Put("pinned", body)
	ent, ok := st.OpenVerified("pinned")
	if !ok {
		t.Fatal("miss")
	}
	// Force retirement of everything.
	st.mu.Lock()
	for len(st.order) > 0 {
		st.retireLocked(st.order[0])
	}
	st.mu.Unlock()
	buf := make([]byte, 64)
	if _, err := ent.ReadBodyAt(buf, 0); err != nil {
		t.Fatalf("pinned read failed after retirement: %v", err)
	}
	ent.Close()
	waitReaped(t, st)
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	if len(segs) != 0 {
		t.Fatalf("doomed segment not unlinked after last Close: %v", segs)
	}
}

// waitReaped waits until the reaper has unlinked every file handed to it.
func waitReaped(t *testing.T, st *Store) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st.mu.RLock()
		idle := len(st.reapQ) == 0 && st.reapBytes == 0
		st.mu.RUnlock()
		if idle {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("the reaper did not drain")
		}
		time.Sleep(time.Millisecond)
	}
}

// returnsWithin fails the test if fn has not returned after five seconds:
// with the unlink hook blocked, a call that waits on an unlink never does.
func returnsWithin(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s waited on a blocked unlink", what)
	}
}

// dirBytes sums the sizes of the segment files in dir.
func dirBytes(t *testing.T, dir string) int64 {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	for _, p := range segs {
		if fi, err := os.Stat(p); err == nil {
			n += fi.Size()
		}
	}
	return n
}

// TestSlowUnlinkStaysOffCallersPath blocks every unlink in the remove hook
// and drives the store past MaxBytes. Commit, Abort, Put, TryPut, Get and
// OpenVerified must all return while the reaper is stuck. Past the unlink
// bound, Begin and TryPut are refused and counted, and Put waits for the
// reaper. The directory never holds more than MaxBytes plus the bound plus
// one record. Once the hook is released and the store closed, only live
// segments remain.
func TestSlowUnlinkStaysOffCallersPath(t *testing.T) {
	release := make(chan struct{})
	var unlinks atomic.Int64
	removeFile = func(path string) error {
		unlinks.Add(1)
		<-release
		return os.Remove(path)
	}
	t.Cleanup(func() { removeFile = os.Remove })
	dir := t.TempDir()
	const maxBytes = 64 << 10
	st := openTest(t, Config{Dir: dir, SegmentBytes: 1 << 10, MaxBytes: maxBytes})
	var releaseOnce sync.Once
	open := func() { releaseOnce.Do(func() { close(release) }) }
	t.Cleanup(open) // runs before the store's Close

	bound := int64(maxBytes / reapShare)
	streamed := bytes.Repeat([]byte("s"), 1500)
	ceiling := maxBytes + bound + recordHeaderSize + 1 + int64(len("streamed")) + int64(len(streamed))
	seen := map[string]bool{}
	check := func(step string) {
		t.Helper()
		segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
		for _, p := range segs {
			seen[filepath.Base(p)] = true
		}
		if n := dirBytes(t, dir); n > ceiling {
			t.Fatalf("after %s the directory holds %d bytes, over MaxBytes + bound + one record = %d", step, n, ceiling)
		}
	}
	body := bytes.Repeat([]byte("b"), 1000)
	put := func(i int) {
		t.Helper()
		returnsWithin(t, "Put", func() {
			if !st.Put(fmt.Sprintf("key-%04d", i), body) {
				t.Error("Put under the bound failed")
			}
		})
		check("Put")
	}
	next := 0
	for ; st.Stats().RetiredSegments == 0; next++ {
		put(next)
	}
	deadline := time.Now().Add(5 * time.Second)
	for unlinks.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the reaper never reached the remove hook")
		}
		time.Sleep(time.Millisecond)
	}

	// Under the bound, a tee begins; its Abort and a Commit both return.
	aborted := st.Begin("aborted")
	if aborted == nil {
		t.Fatalf("Begin refused under the bound (backlog %d of %d)", st.Stats().ReapBytes, bound)
	}
	aborted.Write(streamed)
	check("aborted tee")
	returnsWithin(t, "Abort", aborted.Abort)
	check("Abort")
	ap := st.Begin("streamed")
	if ap == nil {
		t.Fatalf("Begin refused under the bound (backlog %d of %d)", st.Stats().ReapBytes, bound)
	}
	ap.Write(streamed)
	check("streamed tee")
	returnsWithin(t, "Commit", func() {
		if !ap.Commit() {
			t.Error("Commit failed")
		}
	})
	check("Commit")
	for ; st.Stats().ReapBytes <= bound; next++ {
		put(next)
	}

	// Past the bound: request-path writes are refused, reads are served.
	if ap := st.Begin("refused"); ap != nil {
		t.Fatalf("Begin past the bound (backlog %d of %d) returned an appender", st.Stats().ReapBytes, bound)
	}
	returnsWithin(t, "TryPut", func() {
		if st.Layer('k').TryPut("ey-refused", body) {
			t.Error("TryPut past the bound wrote")
		}
	})
	if got := st.Stats().Refused; got != 2 {
		t.Fatalf("refused = %d, want 2 (one Begin, one TryPut)", got)
	}
	returnsWithin(t, "Get", func() {
		if got, ok := st.Get("streamed"); !ok || !bytes.Equal(got, streamed) {
			t.Error("Get of the committed record missed")
		}
	})
	returnsWithin(t, "OpenVerified", func() {
		ent, ok := st.OpenVerified(fmt.Sprintf("key-%04d", next-1))
		if !ok {
			t.Error("OpenVerified of the newest record missed")
			return
		}
		ent.Close()
	})
	check("reads")

	// A background Put waits for the reaper, and completes once it runs.
	putDone := make(chan bool, 1)
	go func() { putDone <- st.Put("waiting", body) }()
	select {
	case <-putDone:
		t.Fatal("Put past the bound did not wait for the reaper")
	case <-time.After(50 * time.Millisecond):
	}
	check("waiting Put")
	open()
	select {
	case ok := <-putDone:
		if !ok {
			t.Fatal("the waiting Put failed")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the waiting Put never completed after the reaper ran")
	}
	check("released")

	returnsWithin(t, "Close", func() { st.Close() })
	live := map[string]bool{}
	for seq := range st.segs {
		live[segName(seq)] = true
	}
	var left []string
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	for _, p := range segs {
		if !live[filepath.Base(p)] {
			left = append(left, filepath.Base(p))
		}
	}
	if len(left) != 0 {
		t.Fatalf("retired files left after Close: %v", left)
	}
	if len(seen) <= len(live) {
		t.Fatalf("no file was retired (%d seen, %d live)", len(seen), len(live))
	}
	if n, want := dirBytes(t, dir), st.Stats().DiskBytes; n != want {
		t.Fatalf("directory holds %d bytes after Close, want the %d live", n, want)
	}
}

// TestConcurrentRetirementLeavesOnlyLiveSegments drives puts, tees (both
// committed and aborted), point reads and pinned reads from several
// goroutines at once through a store many times smaller than what they
// write. After Close the directory holds exactly the live segments: every
// retired, aborted or pinned file reached the reaper and was unlinked.
func TestConcurrentRetirementLeavesOnlyLiveSegments(t *testing.T) {
	dir := t.TempDir()
	st := openTest(t, Config{Dir: dir, SegmentBytes: 2 << 10, MaxBytes: 32 << 10})
	body := bytes.Repeat([]byte("c"), 700)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 150; i++ {
				key := fmt.Sprintf("g%d-%03d", g, i)
				switch i % 3 {
				case 0:
					st.Put(key, body)
				case 1:
					if ap := st.Begin(key); ap != nil {
						ap.Write(body)
						if i%2 == 0 {
							ap.Commit()
						} else {
							ap.Abort()
						}
					}
				}
				st.Get(fmt.Sprintf("g%d-%03d", (g+1)%4, i-1))
				if ent, ok := st.OpenVerified(fmt.Sprintf("g%d-%03d", g, i-3)); ok {
					buf := make([]byte, 64)
					ent.ReadBodyAt(buf, 0)
					ent.Close()
				}
			}
		}(g)
	}
	wg.Wait()
	if s := st.Stats(); s.RetiredSegments == 0 || s.DiskBytes > 32<<10 {
		t.Fatalf("retired %d segments, %d bytes on disk", s.RetiredSegments, s.DiskBytes)
	}
	st.Close()
	if n, want := dirBytes(t, dir), st.Stats().DiskBytes; n != want {
		t.Fatalf("directory holds %d bytes after Close, want the %d live", n, want)
	}
	if st.Stats().ReapBytes != 0 {
		t.Fatalf("Close left %d bytes for the reaper", st.Stats().ReapBytes)
	}
}

// TestReadSegmentsSurviveBudgetSweeps: records read between writes keep
// their segments through many budget sweeps (second chance), while the
// unread records around them retire.
func TestReadSegmentsSurviveBudgetSweeps(t *testing.T) {
	st := openTest(t, Config{SegmentBytes: 1 << 10, MaxBytes: 16 << 10})
	body := bytes.Repeat([]byte("h"), 1000)
	hot := []string{"hot-0", "hot-1", "hot-2", "hot-3"}
	for _, k := range hot {
		st.Put(k, body)
	}
	for i := 0; i < 200; i++ {
		st.Put(fmt.Sprintf("fresh-%04d", i), body)
		if i%4 != 3 {
			continue
		}
		for _, k := range hot {
			if got, ok := st.Get(k); !ok || !bytes.Equal(got, body) {
				t.Fatalf("hot record %s retired after %d fresh writes (%d segments retired)", k, i+1, st.Stats().RetiredSegments)
			}
		}
	}
	s := st.Stats()
	if s.RetiredSegments < 50 {
		t.Fatalf("only %d segments retired: the budget never swept", s.RetiredSegments)
	}
	if s.DiskBytes > 16<<10 {
		t.Fatalf("disk bytes %d over budget", s.DiskBytes)
	}
	if _, ok := st.Get("fresh-0000"); ok {
		t.Fatal("an unread record outlived 200 writes")
	}

	// A store whose every segment is hot still meets its budget.
	for i := 200; i < 216; i++ {
		st.Get(fmt.Sprintf("fresh-%04d", i-16))
		st.Put(fmt.Sprintf("fresh-%04d", i), body)
	}
	if s := st.Stats(); s.DiskBytes > 16<<10 {
		t.Fatalf("disk bytes %d over budget with every segment read", s.DiskBytes)
	}
}

// TestUnreadStoreRetiresOldestFirst: with no reads, retirement keeps
// registration order, so the records that survive are the newest ones.
func TestUnreadStoreRetiresOldestFirst(t *testing.T) {
	st := openTest(t, Config{SegmentBytes: 4 << 10, MaxBytes: 16 << 10})
	body := bytes.Repeat([]byte("b"), 1024)
	const n = 64
	for i := 0; i < n; i++ {
		st.Put(fmt.Sprintf("key-%04d", i), body)
	}
	// Probe from the newest down: reads set referenced bits, which no
	// later write sees.
	live := true
	for i := n - 1; i >= 0; i-- {
		_, ok := st.Get(fmt.Sprintf("key-%04d", i))
		if ok && !live {
			t.Fatalf("key-%04d survived while a newer key retired", i)
		}
		live = ok
	}
	if _, ok := st.Get(fmt.Sprintf("key-%04d", n-1)); !ok {
		t.Fatal("newest key retired")
	}
	if st.Stats().RetiredSegments == 0 {
		t.Fatal("no segment retired")
	}
}

func TestScanRecordsRejectsGarbage(t *testing.T) {
	// Arbitrary garbage must scan to a zero-length valid prefix.
	garbage := []byte("this is not a segment file at all, definitely not")
	end, torn := ScanRecords(bytes.NewReader(garbage), int64(len(garbage)), func(int64, uint32, uint32, []byte) {
		t.Fatal("callback on garbage")
	})
	if end != 0 || !torn {
		t.Fatalf("end=%d torn=%v", end, torn)
	}
}

func TestScanRecordsRoundtrip(t *testing.T) {
	var buf bytes.Buffer
	type kv struct{ k, v string }
	recs := []kv{{"a", "1"}, {"bb", ""}, {"ccc", strings.Repeat("v", 3000)}}
	for _, r := range recs {
		var hdr [recordHeaderSize]byte
		binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(r.k)))
		binary.LittleEndian.PutUint32(hdr[8:12], uint32(len(r.v)))
		crc := crc32.ChecksumIEEE([]byte(r.k))
		crc = crc32.Update(crc, crc32.IEEETable, []byte(r.v))
		crc = crc32.Update(crc, crc32.IEEETable, hdr[4:12])
		binary.LittleEndian.PutUint32(hdr[0:4], crc)
		buf.Write(hdr[:])
		buf.WriteString(r.k)
		buf.WriteString(r.v)
	}
	var got []kv
	end, torn := ScanRecords(bytes.NewReader(buf.Bytes()), int64(buf.Len()), func(off int64, kl, bl uint32, key []byte) {
		got = append(got, kv{string(key), ""})
	})
	if torn || end != int64(buf.Len()) || len(got) != len(recs) {
		t.Fatalf("end=%d torn=%v n=%d", end, torn, len(got))
	}
}

func TestPutReportsDurability(t *testing.T) {
	st := openTest(t, Config{})
	if !st.Put("k", []byte("body")) {
		t.Fatal("Put of a fresh entry reported failure")
	}
	// Same-length overwrite dedupes but the bytes are durable: still true.
	if !st.Put("k", []byte("BODY")) {
		t.Fatal("deduped Put reported failure")
	}
	if st.Put("", []byte("body")) {
		t.Fatal("empty-key Put reported success")
	}
	st.Close()
	if st.Put("late", []byte("body")) {
		t.Fatal("Put after Close reported success")
	}
}

// hashStringReference is the store-key hash as it was computed over a
// concatenated layer ++ key string. hashKey must reproduce it exactly:
// existing segments index their records by it.
func hashStringReference(s string) uint64 {
	h := uint64(fnvOffset64)
	n := len(s)
	if n <= hashSampleLimit {
		for i := 0; i < n; i++ {
			h ^= uint64(s[i])
			h *= fnvPrime64
		}
		return h
	}
	for i := 0; i < 256; i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	stride := (n - 512) / 512
	if stride < 1 {
		stride = 1
	}
	for i := 256; i < n-256; i += stride {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	for i := n - 256; i < n; i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	h ^= uint64(n)
	h *= fnvPrime64
	return h
}

// TestHashKeyMatchesConcatenatedHash pins hash(layer, key) ==
// hashString(string(layer)+key) on both sides of the sampling cutoff, for
// string and byte keys, plus golden values of the concatenated hash so the
// on-disk index stays compatible with segments written before the split.
func TestHashKeyMatchesConcatenatedHash(t *testing.T) {
	for _, n := range []int{0, 1, 2, 255, 256, 511, 512, 1021, 1022, 1023, 1024, 1025, 1026, 1535, 1536, 4096, 100_003} {
		var b strings.Builder
		for i := 0; i < n; i++ {
			b.WriteByte(byte('0' + (i*7+n)%43))
		}
		key := b.String()
		for _, layer := range []byte{'c', 'r', 'b'} {
			want := hashStringReference(string(layer) + key)
			if got := hashKey(layer, key); got != want {
				t.Fatalf("hashKey(%q, len %d) = %#x, want %#x", layer, n, got, want)
			}
			if got := hashKey(layer, []byte(key)); got != want {
				t.Fatalf("hashKey(%q, []byte len %d) = %#x, want %#x", layer, n, got, want)
			}
		}
	}
	golden := []struct {
		key  string
		want uint64
	}{
		{"c", 0xaf63de4c8601eff2},
		{"cabc", 0xb52b6b90e84de736},
		{"r" + strings.Repeat("x", 1023), 0x902b4a9ce6a0932f},
		{"r" + strings.Repeat("x", 1024), 0xc40789e27904f03c},
		{"c" + strings.Repeat("0x1p-01,", 200), 0x8f447a37817e2129},
		{"r" + strings.Repeat("0.25,", 2000) + "1", 0x22cfc643c68094},
		{"b" + strings.Repeat("q", 100000), 0x103108c09e55dfcc},
	}
	for _, g := range golden {
		if got := hashStringReference(g.key); got != g.want {
			t.Fatalf("reference hash of len %d = %#x, want %#x", len(g.key), got, g.want)
		}
		if got := hashKey(g.key[0], g.key[1:]); got != g.want {
			t.Fatalf("hashKey of len %d = %#x, want %#x", len(g.key), got, g.want)
		}
	}
}

// TestLayerKeysRecoverFromConcatenatedRecords writes records framed by
// hand with a concatenated layer ++ key (the on-disk format), reopens the
// store over them, and requires every layered read to hit; a layered
// write then recovers and reads back through the whole-key methods.
func TestLayerKeysRecoverFromConcatenatedRecords(t *testing.T) {
	dir := t.TempDir()
	keys := map[byte]string{
		'c': "0x1p+00|0x1p-01",
		'r': "profile=" + strings.Repeat("0.5,", 400) + "1",
		'b': strings.Repeat("{}", 70000), // past one 64 KiB verify chunk
	}
	var seg []byte
	for layer, key := range keys {
		stored, body := string(layer)+key, "body-of-"+string(layer)
		var hdr [recordHeaderSize]byte
		binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(stored)))
		binary.LittleEndian.PutUint32(hdr[8:12], uint32(len(body)))
		crc := crc32.ChecksumIEEE([]byte(stored + body))
		crc = crc32.Update(crc, crc32.IEEETable, hdr[4:12])
		binary.LittleEndian.PutUint32(hdr[0:4], crc)
		seg = append(append(append(seg, hdr[:]...), stored...), body...)
	}
	if err := os.WriteFile(filepath.Join(dir, segName(1)), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for layer, key := range keys {
		want := "body-of-" + string(layer)
		if got, ok := st.Layer(layer).Get(key); !ok || string(got) != want {
			t.Fatalf("layer %q Get: %q ok=%v", layer, got, ok)
		}
		ent, ok := st.Layer(layer).OpenVerified(key)
		if !ok || ent.BodyLen() != int64(len(want)) {
			t.Fatalf("layer %q OpenVerified: ok=%v", layer, ok)
		}
		ent.Close()
		// The same key under another layer is a different record.
		if _, ok := st.Layer(layer + 1).Get(key); ok {
			t.Fatalf("layer %q key hit under layer %q", layer, layer+1)
		}
	}
	if !st.Layer('r').Put("fresh", []byte("written")) {
		t.Fatal("layered Put failed")
	}
	ap := st.Layer('b').Begin("streamed")
	ap.Write([]byte("appended"))
	if !ap.Commit() {
		t.Fatal("layered append failed")
	}
	st.Close()
	st = openTest(t, Config{Dir: dir})
	for key, want := range map[string]string{"rfresh": "written", "bstreamed": "appended"} {
		if got, ok := st.Get(key); !ok || string(got) != want {
			t.Fatalf("whole-key Get(%q) after reopen: %q ok=%v", key, got, ok)
		}
	}
}
