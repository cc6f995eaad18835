package spill

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// crc32Combine must agree with a CRC of the concatenation for every split,
// including empty parts, lengths 1 and 2^k±1, and multi-MiB parts.
func TestCRC32CombineMatchesConcatenation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	lens := []int{0, 1, 2, 3}
	for k := 2; k <= 22; k += 4 {
		lens = append(lens, 1<<k-1, 1<<k, 1<<k+1)
	}
	lens = append(lens, 5<<20+17)
	data := make([]byte, 2*(5<<20+17))
	rng.Read(data)
	for _, la := range lens {
		for _, lb := range lens {
			a, b := data[:la], data[la:la+lb]
			want := crc32.ChecksumIEEE(data[:la+lb])
			if got := crc32Combine(crc32.ChecksumIEEE(a), crc32.ChecksumIEEE(b), int64(lb)); got != want {
				t.Fatalf("combine(len %d, len %d) = %08x, want %08x", la, lb, got, want)
			}
		}
	}
	// A fold of many random parts, as the pre-verify does it.
	for trial := 0; trial < 20; trial++ {
		total := rng.Intn(len(data))
		var crc uint32
		for lo := 0; lo < total; {
			hi := min(total, lo+rng.Intn(1<<rng.Intn(21)+1))
			crc = crc32Combine(crc, crc32.ChecksumIEEE(data[lo:hi]), int64(hi-lo))
			lo = hi
		}
		if want := crc32.ChecksumIEEE(data[:total]); crc != want {
			t.Fatalf("fold over %d bytes = %08x, want %08x", total, crc, want)
		}
	}
}

// splitRecord stores one record large enough for the pre-verify to split
// into several parts: a 3 MiB key (so it spans three parts) and a 512 KiB
// body. It returns the store, the segment path, and the key and body.
func splitRecord(t *testing.T) (*Store, string, string, []byte) {
	t.Helper()
	dir := t.TempDir()
	st := openTest(t, Config{Dir: dir})
	rng := rand.New(rand.NewSource(11))
	key := make([]byte, 3*verifyPartBytes)
	rng.Read(key)
	key[0] = 'b'
	body := make([]byte, verifyPartBytes/2)
	rng.Read(body)
	if !st.Put(string(key), body) {
		t.Fatal("Put failed")
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	if len(segs) != 1 {
		t.Fatalf("segments %v, want one", segs)
	}
	return st, segs[0], string(key), body
}

// A flipped byte anywhere in a split record — the first key bytes, either
// side of every part boundary, the last body byte — is a miss that counts
// corrupt and drops the entry.
func TestOpenVerifiedRejectsCorruptSplit(t *testing.T) {
	const total = 3*verifyPartBytes + verifyPartBytes/2 // stored key + body
	at := []int64{0, 1, total - 1}
	for k := int64(1); k*verifyPartBytes < total; k++ {
		at = append(at, k*verifyPartBytes-1, k*verifyPartBytes, k*verifyPartBytes+1)
	}
	for _, pos := range at {
		t.Run(fmt.Sprint(pos), func(t *testing.T) {
			st, seg, key, _ := splitRecord(t)
			f, err := os.OpenFile(seg, os.O_RDWR, 0)
			if err != nil {
				t.Fatal(err)
			}
			var b [1]byte
			f.ReadAt(b[:], recordHeaderSize+pos)
			b[0] ^= 0x10
			f.WriteAt(b[:], recordHeaderSize+pos)
			f.Close()
			if ent, ok := st.OpenVerified(key); ok {
				ent.Close()
				t.Fatal("corrupt record passed the split pre-verify")
			}
			s := st.Stats()
			if s.Corrupt != 1 || s.Entries != 0 {
				t.Fatalf("corrupt = %d, entries = %d; want 1, 0", s.Corrupt, s.Entries)
			}
		})
	}
}

// A key that hashes like the stored one but differs in a later part is a
// collision: a miss, not corrupt, and the entry stays.
func TestOpenVerifiedSplitCollision(t *testing.T) {
	st, _, key, body := splitRecord(t)
	n := len(key) // the stored key: a whole-store key is its id byte ++ the layer key
	stride := (n - 512) / 512
	// Stored byte i ≥ 256 in the middle is sampled by the hash only when
	// (i-256)%stride == 0; pick one that is not, past the first part.
	i := 2*verifyPartBytes + verifyPartBytes/3
	for (i-256)%stride == 0 {
		i++
	}
	other := []byte(key)
	other[i] ^= 0x01
	if hashKey(other[0], other[1:]) != hashKey(key[0], key[1:]) {
		t.Fatal("test key does not collide")
	}
	if ent, ok := st.OpenVerified(string(other)); ok {
		ent.Close()
		t.Fatal("colliding key served the stored body")
	}
	if s := st.Stats(); s.Corrupt != 0 || s.Entries != 1 {
		t.Fatalf("corrupt = %d, entries = %d; want 0, 1", s.Corrupt, s.Entries)
	}
	ent, ok := st.OpenVerified(key)
	if !ok {
		t.Fatal("stored key missed after a collision")
	}
	defer ent.Close()
	var out bytes.Buffer
	if _, err := ent.WriteTo(&out); err != nil || !bytes.Equal(out.Bytes(), body) {
		t.Fatalf("WriteTo: %v, body equal %v", err, bytes.Equal(out.Bytes(), body))
	}
}

// Get returns the body at its own size: a memory cache that keeps it is
// charged len(body) and must not pin the record's header and key.
func TestGetReturnsExactSizeBody(t *testing.T) {
	st := openTest(t, Config{})
	key := "k" + string(bytes.Repeat([]byte("key"), 1000))
	body := bytes.Repeat([]byte("b"), 64<<10)
	st.Put(key, body)
	for i := 0; i < 3; i++ { // later reads reuse a pooled record buffer
		got, ok := st.Get(key)
		if !ok || !bytes.Equal(got, body) {
			t.Fatalf("read %d: ok %v, body equal %v", i, ok, bytes.Equal(got, body))
		}
		if rec := recordHeaderSize + len(key) + len(body); cap(got) >= rec || cap(got) != len(body) {
			t.Fatalf("read %d: body cap %d, len %d, record %d", i, cap(got), len(got), rec)
		}
	}
	st.Put("e", nil)
	if got, ok := st.Get("e"); !ok || got == nil || len(got) != 0 {
		t.Fatalf("empty body: %v %v", got, ok)
	}
}

// BeginBytes and OpenVerifiedBytes keep no reference to their key: a
// caller that overwrites it once they return changes nothing stored.
func TestBytesKeysAreNotKept(t *testing.T) {
	st := openTest(t, Config{})
	l := st.Layer('b')
	orig := bytes.Repeat([]byte("sweep-"), 400)
	key := bytes.Clone(orig)
	body := bytes.Repeat([]byte("response "), 1000)
	ap := l.BeginBytes(key)
	if ap == nil {
		t.Fatal("BeginBytes refused")
	}
	for i := range key {
		key[i] = 'x'
	}
	ap.Write(body)
	if !ap.Commit() {
		t.Fatal("Commit failed")
	}
	if _, ok := l.Get(string(key)); ok {
		t.Fatal("overwritten key bytes reached the record")
	}
	if got, ok := l.Get(string(orig)); !ok || !bytes.Equal(got, body) {
		t.Fatal("record not stored under the key Begin was given")
	}

	copy(key, orig)
	ent, ok := l.OpenVerifiedBytes(key)
	if !ok {
		t.Fatal("OpenVerifiedBytes missed")
	}
	defer ent.Close()
	for i := range key {
		key[i] = 'y'
	}
	var out bytes.Buffer
	if _, err := ent.WriteTo(&out); err != nil || !bytes.Equal(out.Bytes(), body) {
		t.Fatal("entry changed with its probe key")
	}
	if _, ok := l.OpenVerifiedBytes(key); ok {
		t.Fatal("overwritten probe key hit")
	}
	if e2, ok := l.OpenVerifiedBytes(orig); !ok {
		t.Fatal("original key missed after its probe buffer was reused")
	} else {
		e2.Close()
	}
}

// WriteTo copies through a file of its own; when that cannot be opened it
// falls back to the pinned segment's descriptor and writes the same bytes.
func TestEntryWriteToFallback(t *testing.T) {
	dir := t.TempDir()
	st := openTest(t, Config{Dir: dir})
	body := bytes.Repeat([]byte("0123456789abcdef"), 3*verifyChunk/16+5)
	st.Put("first", []byte("an earlier record"))
	st.Put("k", body)
	ent, ok := st.OpenVerified("k")
	if !ok {
		t.Fatal("miss")
	}
	defer ent.Close()
	var out bytes.Buffer
	if n, err := ent.WriteTo(&out); err != nil || n != int64(len(body)) || !bytes.Equal(out.Bytes(), body) {
		t.Fatalf("WriteTo = %d, %v; body equal %v", n, err, bytes.Equal(out.Bytes(), body))
	}
	// Unlink the file behind the store's open descriptor: the path no
	// longer opens, the pinned descriptor still reads.
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	for _, p := range segs {
		os.Remove(p)
	}
	out.Reset()
	if n, err := ent.WriteTo(&out); err != nil || n != int64(len(body)) || !bytes.Equal(out.Bytes(), body) {
		t.Fatalf("fallback WriteTo = %d, %v; body equal %v", n, err, bytes.Equal(out.Bytes(), body))
	}
}
