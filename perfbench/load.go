package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// digest identifies a response body: CRC-32C in the high half, length in
// the low half.
type digest uint64

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// digestWriter accumulates a digest over everything written to it.
type digestWriter struct {
	crc uint32
	n   uint64
}

func (d *digestWriter) Write(p []byte) (int, error) {
	d.crc = crc32.Update(d.crc, castagnoli, p)
	d.n += uint64(len(p))
	return len(p), nil
}

func (d *digestWriter) sum() digest { return digest(uint64(d.crc)<<32 | d.n&0xffffffff) }

func digestOf(b []byte) digest {
	var d digestWriter
	d.Write(b)
	return d.sum()
}

// opSpec is one request of a workload. When known is false the reference
// digest is computed after the timed phase by source.reference.
type opSpec struct {
	req   []byte
	class int
	ref   digest
	known bool
}

// source produces a workload's requests by index, deterministically.
type source interface {
	// op builds request i, using *scratch for bytes it has to assemble.
	op(i int, scratch *[]byte) opSpec
	// reference computes the expected digest of request i by direct
	// evaluation, for requests op built with known == false.
	reference(i int) (digest, error)
	// classes names the op classes op reports.
	classes() []string
}

// opRecord is the outcome of one request. It holds no pointers, so the
// garbage collector never scans the record slices.
type opRecord struct {
	i      int
	class  int
	start  time.Duration // since the phase began
	end    time.Duration
	status int
	got    digest
	ref    digest
	known  bool
	fail   failure
}

// failure says why an op failed; a non-200 status fails by itself.
type failure uint8

const (
	failNone      failure = iota
	failTransport         // connect, write, read or framing error
	failMismatch          // response bytes differ from the reference
)

func (r opRecord) ok() bool { return r.fail == failNone && r.status == 200 }

// client is one keep-alive HTTP/1.1 connection with a hand-written wire
// path: requests are pre-built bytes and responses are parsed in place, so
// an op allocates nothing and no transport goroutine sits between the timer
// and the socket.
type client struct {
	addr string
	conn net.Conn
	br   *bufio.Reader
	buf  []byte
}

func (c *client) dial() error {
	conn, err := net.Dial("tcp", c.addr)
	if err != nil {
		return err
	}
	c.conn = conn
	if c.br == nil {
		c.br = bufio.NewReaderSize(conn, 64<<10)
		c.buf = make([]byte, 64<<10)
	} else {
		c.br.Reset(conn)
	}
	return nil
}

func (c *client) close() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// do sends req and reads the whole response body into a digest. A transport
// error closes the connection; the next call redials.
func (c *client) do(req []byte, timeout time.Duration) (int, digest, error) {
	if c.conn == nil {
		if err := c.dial(); err != nil {
			return 0, 0, err
		}
	}
	_ = c.conn.SetDeadline(time.Now().Add(timeout))
	if _, err := c.conn.Write(req); err != nil {
		c.close()
		return 0, 0, err
	}
	var d digestWriter
	status, keep, err := c.readResponse(&d)
	if err != nil || !keep {
		c.close()
	}
	return status, d.sum(), err
}

var (
	errFraming        = errors.New("malformed HTTP response")
	hdrContentLength  = []byte("Content-Length")
	hdrTransferEnc    = []byte("Transfer-Encoding")
	hdrConnection     = []byte("Connection")
	tokChunked, tokCl = []byte("chunked"), []byte("close")
)

// readResponse parses one HTTP/1.1 response, feeding its body (de-chunked)
// to d. keep reports whether the connection can carry another request.
func (c *client) readResponse(d *digestWriter) (status int, keep bool, err error) {
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return 0, false, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return 0, false, errFraming
	}
	status, err = strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, false, errFraming
	}
	length, chunked, keep := int64(-1), false, true
	for {
		if line, err = c.br.ReadSlice('\n'); err != nil {
			return status, false, err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		name, val, ok := bytes.Cut(line, []byte(":"))
		if !ok {
			return status, false, errFraming
		}
		val = bytes.TrimSpace(val)
		switch {
		case bytes.EqualFold(name, hdrContentLength):
			if length, err = strconv.ParseInt(string(val), 10, 64); err != nil {
				return status, false, errFraming
			}
		case bytes.EqualFold(name, hdrTransferEnc):
			chunked = bytes.EqualFold(val, tokChunked)
		case bytes.EqualFold(name, hdrConnection):
			keep = !bytes.EqualFold(val, tokCl)
		}
	}
	switch {
	case chunked:
		for {
			if line, err = c.br.ReadSlice('\n'); err != nil {
				return status, false, err
			}
			sz, _, _ := bytes.Cut(bytes.TrimRight(line, "\r\n"), []byte(";"))
			n, err := strconv.ParseInt(string(sz), 16, 64)
			if err != nil || n < 0 {
				return status, false, errFraming
			}
			if n == 0 {
				break
			}
			if err := c.copyN(d, n); err != nil {
				return status, false, err
			}
			if _, err := c.br.Discard(2); err != nil { // the chunk's CRLF
				return status, false, err
			}
		}
		for { // trailer section up to the empty line
			if line, err = c.br.ReadSlice('\n'); err != nil {
				return status, false, err
			}
			if len(bytes.TrimRight(line, "\r\n")) == 0 {
				return status, keep, nil
			}
		}
	case length >= 0:
		return status, keep, c.copyN(d, length)
	default: // body runs to EOF
		_, err = io.CopyBuffer(d, struct{ io.Reader }{c.br}, c.buf)
		return status, false, err
	}
}

// copyN feeds the next n body bytes to d.
func (c *client) copyN(d *digestWriter, n int64) error {
	for n > 0 {
		k := int(min(n, int64(len(c.buf))))
		if _, err := io.ReadFull(c.br, c.buf[:k]); err != nil {
			return err
		}
		d.Write(c.buf[:k])
		n -= int64(k)
	}
	return nil
}

// opTimeout bounds one request; a request that takes longer fails.
const opTimeout = 30 * time.Second

// phase is the outcome of one closed-loop phase.
type phase struct {
	records  []opRecord // ordered by op index
	t0       time.Time  // the start the records' times count from
	elapsed  time.Duration
	firstErr string // first transport error, for the run metadata
}

// runClosedLoop drives src over conns connections, each sending its next
// request only after the previous reply has been read. Ops are taken in
// index order from a shared counter starting at 0. With limit > 0 the phase
// ends after ops 0..limit-1; otherwise it ends after dur (requests in flight
// at that moment complete and count).
func runClosedLoop(addr string, conns int, src source, limit int, dur time.Duration) phase {
	var next atomic.Int64
	per := make([][]opRecord, conns)
	errs := make([]string, conns) // first transport error of each connection
	t0 := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := &client{addr: addr}
			defer c.close()
			var scratch []byte
			for {
				if limit <= 0 && time.Since(t0) >= dur {
					return
				}
				i := int(next.Add(1) - 1)
				if limit > 0 && i >= limit {
					return
				}
				spec := src.op(i, &scratch)
				start := time.Since(t0)
				status, got, err := c.do(spec.req, opTimeout)
				rec := opRecord{
					i: i, class: spec.class, start: start, end: time.Since(t0),
					status: status, got: got, ref: spec.ref, known: spec.known,
				}
				if err != nil {
					rec.fail = failTransport
					if errs[w] == "" {
						errs[w] = err.Error()
					}
				}
				per[w] = append(per[w], rec)
			}
		}(w)
	}
	wg.Wait()
	ph := phase{t0: t0, elapsed: time.Since(t0)}
	for w, rs := range per {
		ph.records = append(ph.records, rs...)
		if errs[w] != "" && ph.firstErr == "" {
			ph.firstErr = errs[w]
		}
	}
	sortRecords(ph.records)
	return ph
}

// verify checks every record against its reference digest, computing the
// deferred ones. It returns the number of failed ops and how many of those
// returned wrong bytes.
func verify(ph *phase, src source) (failed, mismatches int64, err error) {
	for k := range ph.records {
		r := &ph.records[k]
		if !r.ok() {
			failed++
			continue
		}
		if !r.known {
			ref, err := src.reference(r.i)
			if err != nil {
				return failed, mismatches, fmt.Errorf("reference for op %d: %w", r.i, err)
			}
			r.ref, r.known = ref, true
		}
		if r.got != r.ref {
			r.fail = failMismatch
			failed++
			mismatches++
		}
	}
	return failed, mismatches, nil
}
