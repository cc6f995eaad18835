package api

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"

	"hetero/internal/cluster"
)

// chunked hides a reader's length from net/http so the client sends the
// body with chunked transfer encoding (ContentLength -1 on the server).
type chunked struct{ io.Reader }

// TestReadPostBody drives readPostBody through a real net/http server, so
// the request bodies carry the declared lengths and transfer encodings a
// client sends. Accepted bodies are echoed; rejections must keep the
// statuses and messages every POST endpoint has always returned.
func TestReadPostBody(t *testing.T) {
	const max = 1024
	s := NewServer()
	s.MaxBody = max
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if body, ok := s.readPostBody(w, r); ok {
			w.WriteHeader(http.StatusOK)
			w.Write(body)
		}
	}))
	defer ts.Close()
	atCap := bytes.Repeat([]byte("x"), max)
	const tooLarge = `{"error":"body exceeds 1024 bytes; shard across requests or raise -max-body"}` + "\n"
	cases := []struct {
		name     string
		body     io.Reader
		status   int
		wantBody string
	}{
		{"empty", nil, http.StatusOK, ""},
		{"declared length at the cap", bytes.NewReader(atCap), http.StatusOK, string(atCap)},
		{"declared length one over the cap", bytes.NewReader(append(atCap, 'y')), http.StatusRequestEntityTooLarge, tooLarge},
		{"chunked within the cap", chunked{bytes.NewReader(atCap)}, http.StatusOK, string(atCap)},
		{"chunked over the cap", chunked{bytes.NewReader(bytes.Repeat(atCap, 2))}, http.StatusRequestEntityTooLarge, tooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL, "application/json", tc.body)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			got, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tc.status || string(got) != tc.wantBody {
				t.Fatalf("status %d body %.80q, want %d %.80q", resp.StatusCode, got, tc.status, tc.wantBody)
			}
		})
	}

	// A client that declares more bytes than it sends: net/http's body
	// reader reports the short read, which is the structured 400.
	t.Run("declared length longer than the body", func(t *testing.T) {
		conn, err := net.Dial("tcp", strings.TrimPrefix(ts.URL, "http://"))
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := io.WriteString(conn, "POST / HTTP/1.1\r\nHost: x\r\nContent-Length: 100\r\n\r\nonly ten b"); err != nil {
			t.Fatal(err)
		}
		conn.(*net.TCPConn).CloseWrite()
		resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		got, _ := io.ReadAll(resp.Body)
		const want = `{"error":"reading body: unexpected EOF"}` + "\n"
		if resp.StatusCode != http.StatusBadRequest || string(got) != want {
			t.Fatalf("status %d body %q, want 400 %q", resp.StatusCode, got, want)
		}
	})
}

// TestReadBodyLengths: readBody returns the reader's bytes exactly, up to
// one byte past max, whatever length the caller declared, including
// lengths that are wrong in either direction.
func TestReadBodyLengths(t *testing.T) {
	const max = 100 << 10
	data := make([]byte, max+10)
	for i := range data {
		data[i] = byte(i * 7)
	}
	for _, tc := range []struct{ size, declared int }{
		{0, 0}, {0, -1}, {1, 1}, {5000, 5000}, {5000, -1}, {max, max},
		{max + 10, max + 10}, {max + 10, -1}, {5000, 10}, {10, 5000},
	} {
		got, err := readBody(bytes.NewReader(data[:tc.size]), int64(tc.declared), max)
		want := data[:min(tc.size, max+1)]
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("size %d declared %d: %d bytes, err %v; want %d bytes", tc.size, tc.declared, len(got), err, len(want))
		}
	}
}

// allocated returns the fewest bytes any of five calls of f allocates, so
// a goroutine left behind by another test cannot inflate the figure.
func allocated(f func()) uint64 {
	f()
	var ms runtime.MemStats
	best := uint64(1 << 62)
	for i := 0; i < 5; i++ {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		f()
		runtime.ReadMemStats(&ms)
		best = min(best, ms.TotalAlloc-before)
	}
	return best
}

// TestReadPostBodyAllocation: a 4 MiB body is read into pieces that hold
// half of it and then one buffer of its declared length, about 1.5x the
// body in all. io.ReadAll regrows its slice ~1.25x per step by copying:
// about 5x on this read.
func TestReadPostBodyAllocation(t *testing.T) {
	const size = 4 << 20
	s := NewServer()
	body := bytes.Repeat([]byte("7"), size)
	got := allocated(func() {
		r := httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(body))
		b, ok := s.readPostBody(httptest.NewRecorder(), r)
		if !ok || len(b) != size {
			t.Fatalf("read %d bytes, ok %v", len(b), ok)
		}
	})
	if limit := uint64(size) * 13 / 8; got > limit {
		t.Fatalf("reading a %d-byte body allocated %d bytes, want <= %d", size, got, limit)
	}
}

// TestReadPostBodyDeclaredOnly: a peer request, which skips admission,
// that declares the whole body cap and sends nothing gets the "reading
// body" 400 and costs kilobytes, not the length it declared.
func TestReadPostBodyDeclaredOnly(t *testing.T) {
	s := NewServer()
	h := s.Handler()
	var status int
	got := allocated(func() {
		r := httptest.NewRequest(http.MethodPost, cluster.PeerGetPath, iotest.ErrReader(io.ErrUnexpectedEOF))
		r.ContentLength = int64(s.maxBody())
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		status = w.Code
	})
	if status != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", status)
	}
	if limit := uint64(64 << 10); got > limit {
		t.Fatalf("a header-only request declaring %d bytes allocated %d bytes, want <= %d", s.maxBody(), got, limit)
	}
}
