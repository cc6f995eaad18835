package api

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"hetero/internal/spill"
)

// tierSite is one call site of readThrough, driven through its real entry
// point. serve answers the request for seed on s and reports the
// evaluations that answer cost; ownerKey is the key the site's peer layer
// would hash for ring ownership.
type tierSite struct {
	name     string
	peer     bool // the site consults the owning replica
	ownerKey func(t *testing.T, seed int) []byte
	serve    func(t *testing.T, s *Server, seed int) (body []byte, evals uint64)
}

func smallMeasureQuery(seed int) string { return fmt.Sprintf("profile=1,0.5,0.%03d", seed%900+100) }

// largeCompareQuery is a /v1/compare query long enough for the raw front.
func largeCompareQuery(seed int) string {
	var b strings.Builder
	b.WriteString("p2=1,0.5&p1=")
	for i, rho := range randomRhos(300, uint64(seed)) {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatFloat(rho, 'g', -1, 64))
	}
	return b.String()
}

// tierBatchBody is a one-profile batch body over the body-front floor whose
// fragment goes through the canonical cache, so canonical misses count its
// evaluations.
func tierBatchBody(t *testing.T, seed int) []byte {
	body := marshalBatch(t, [][]float64{randomRhos(300, uint64(seed))})
	if len(body) < batchRawMinBody {
		t.Fatalf("batch body %d bytes, below the front floor", len(body))
	}
	return body
}

// canonicalMisses runs f and reports the canonical-layer misses it caused.
func canonicalMisses(s *Server, f func()) uint64 {
	before := s.cache.counters().misses
	f()
	return s.cache.counters().misses - before
}

func measureSite(name string, query func(int) string, canonicalOwner bool) tierSite {
	return tierSite{
		name: name,
		peer: true,
		ownerKey: func(t *testing.T, seed int) []byte {
			q := query(seed)
			if !canonicalOwner {
				return []byte(q)
			}
			sc := &measureScratch{}
			m, status, msg := NewServer().parseMeasureQuery(sc, q)
			if status != 0 {
				t.Fatalf("parse: %d %s", status, msg)
			}
			return appendCanonicalKey(nil, m, sc.rhos)
		},
		serve: func(t *testing.T, s *Server, seed int) ([]byte, uint64) {
			before := s.MeasureEvals()
			status, body := s.MeasureQuery(query(seed))
			if status != 200 {
				t.Fatalf("measure status %d", status)
			}
			return body, s.MeasureEvals() - before
		},
	}
}

var tierSites = []tierSite{
	measureSite("measureCanonical", smallMeasureQuery, true),
	measureSite("measure raw front", func(seed int) string { return largeTestQuery(1024, uint64(seed)) }, false),
	{
		name:     "serveQueryCached",
		ownerKey: func(t *testing.T, seed int) []byte { return []byte(largeCompareQuery(seed)) },
		serve: func(t *testing.T, s *Server, seed int) ([]byte, uint64) {
			var evals uint64
			w := httptest.NewRecorder()
			s.serveQueryCached(w, compareKeyPrefix, largeCompareQuery(seed), func(q string) (int, []byte, string) {
				evals++
				return s.renderCompare(q)
			})
			if w.Code != 200 {
				t.Fatalf("compare status %d: %s", w.Code, w.Body)
			}
			return w.Body.Bytes(), evals
		},
	},
	{
		name:     "BatchBody",
		ownerKey: func(t *testing.T, seed int) []byte { return tierBatchBody(t, seed) },
		serve: func(t *testing.T, s *Server, seed int) (body []byte, evals uint64) {
			evals = canonicalMisses(s, func() {
				var status int
				var msg string
				if status, body, msg = s.BatchBody(tierBatchBody(t, seed)); status != 200 {
					t.Fatalf("batch status %d: %s", status, msg)
				}
			})
			return body, evals
		},
	},
	batchHTTPSite("handleBatch streamed route", 1),
	batchHTTPSite("handleBatch streamed route, buffered", batchRawMinBody),
	{
		name:     "BatchBodyStream",
		ownerKey: func(t *testing.T, seed int) []byte { return tierBatchBody(t, seed) },
		serve: func(t *testing.T, s *Server, seed int) (body []byte, evals uint64) {
			evals = canonicalMisses(s, func() {
				var buf bytes.Buffer
				if status, msg, err := s.BatchBodyStream(context.Background(), &buf, tierBatchBody(t, seed)); status != 200 || err != nil {
					t.Fatalf("batch stream status %d: %s %v", status, msg, err)
				}
				body = buf.Bytes()
			})
			return body, evals
		},
	},
}

// batchHTTPSite drives POST /v1/batch through handleBatch on a server whose
// stream threshold is threshold. The site's body is over it, so it takes
// the streamed route (spill read as a stream); its one fragment of 300 ρ
// then streams when threshold ≤ 300 and is buffered above.
func batchHTTPSite(name string, threshold int) tierSite {
	return tierSite{
		name:     name,
		ownerKey: func(t *testing.T, seed int) []byte { return tierBatchBody(t, seed) },
		serve: func(t *testing.T, s *Server, seed int) (body []byte, evals uint64) {
			s.StreamBatchThreshold = threshold
			evals = canonicalMisses(s, func() {
				w := httptest.NewRecorder()
				s.handleBatch(w, httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(tierBatchBody(t, seed))))
				if w.Code != 200 {
					t.Fatalf("batch status %d: %s", w.Code, w.Body)
				}
				body = w.Body.Bytes()
			})
			return body, evals
		},
	}
}

// TestReadOrderPerCallSite pins readThrough's tier order at every call
// site, on replica 0 of a two-replica fleet, for a key replica 1 owns. A key
// held only on replica 0's disk is served from spill with no evaluation and
// no peer call; a key held only on the owner is fetched with no evaluation
// (peer layers) or evaluated once without asking (peer-less layers); a key
// held nowhere is evaluated exactly once and pushed to the owner once, on
// peer layers only. Every answer is byte-identical to a plain evaluation.
func TestReadOrderPerCallSite(t *testing.T) {
	for _, site := range tierSites {
		for _, held := range []string{"disk", "owner", "nowhere"} {
			t.Run(site.name+"/"+held, func(t *testing.T) {
				f := newTestFleet(t, 2, nil)
				s, owner := f.servers[0], f.servers[1]
				seed := 1
				for ; seed < 200; seed++ {
					if addr, _ := s.cluster.Owner(hashKey(site.ownerKey(t, seed))); addr == f.addrs[1] {
						break
					}
				}
				want, _ := site.serve(t, NewServer(), seed)

				switch held {
				case "disk":
					dir := t.TempDir()
					warm := newWriteThroughServer(t, dir)
					site.serve(t, warm, seed)
					warm.CloseSpill()
					st, err := spill.Open(spill.Config{Dir: dir})
					if err != nil {
						t.Fatal(err)
					}
					s.EnableSpill(st)
					t.Cleanup(s.CloseSpill)
				case "owner":
					site.serve(t, owner, seed)
				}

				got, evals := site.serve(t, s, seed)
				if !bytes.Equal(got, want) {
					t.Fatalf("served bytes differ from a plain evaluation:\n got %.120q\nwant %.120q", got, want)
				}
				cs := clusterStatzOf(t, s)
				fetches := cs.PeerHits + cs.PeerMisses + cs.Errors
				var wantEvals, wantFetches, wantPushes uint64
				switch {
				case held == "disk":
					if s.spillStats().Hits == 0 {
						t.Error("no spill hit recorded")
					}
				case held == "owner" && site.peer:
					wantFetches = 1
				case held == "owner":
					wantEvals = 1
				case site.peer:
					wantEvals, wantFetches, wantPushes = 1, 1, 1
				default:
					wantEvals = 1
				}
				if evals != wantEvals || fetches != wantFetches || cs.Pushes != wantPushes {
					t.Fatalf("evals %d, peer fetches %d, pushes %d; want %d, %d, %d",
						evals, fetches, cs.Pushes, wantEvals, wantFetches, wantPushes)
				}
				if held == "owner" && site.peer && cs.PeerHits != 1 {
					t.Fatalf("peer fetch missed the warm owner (hits %d)", cs.PeerHits)
				}
				if accepted := clusterStatzOf(t, owner).AcceptedPuts; accepted != wantPushes {
					t.Fatalf("owner accepted %d pushes, want %d", accepted, wantPushes)
				}
			})
		}
	}
}
