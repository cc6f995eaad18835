package api

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strconv"

	"hetero/internal/core"
	"hetero/internal/model"
)

// The raw-query front layer for /v1/compare and /v1/speedup. Both endpoints
// parse profiles exactly like /v1/measure but carry them through url.Values;
// for the large profiles where parsing rivals evaluation, the same
// front-cache treatment applies: the exact RawQuery string (plus a
// per-endpoint key prefix) is a cache key checked before any parsing, with
// misses singleflight-coalesced and errors never cached. Small queries take
// the plain parse path untouched.

// Key prefixes namespace each endpoint's entries inside the shared raw
// cache. They start with a 0x01 control byte, which can never appear in a
// RawQuery (the HTTP request line rejects raw control bytes), so no measure
// query — whose key is the bare RawQuery — can collide with them.
const (
	compareKeyPrefix = "\x01c|"
	speedupKeyPrefix = "\x01s|"
)

// serveQueryCached serves one GET query endpoint through the raw front
// cache: queries of at least rawFastPathMinQuery bytes are read through the
// memory and spill tiers (no peers) under prefix+rawQuery, coalescing
// concurrent identical misses; smaller ones render directly. render returns
// (status, body, errMsg) with the body newline-terminated; non-200 outcomes
// propagate to every coalesced waiter and are never cached.
func (s *Server) serveQueryCached(w http.ResponseWriter, prefix, rawQuery string, render func(string) (int, []byte, string)) {
	if len(rawQuery) < rawFastPathMinQuery || s.rawCache.capacity <= 0 {
		status, body, msg := render(rawQuery)
		if status != http.StatusOK {
			writeError(w, status, msg)
			return
		}
		writeRawJSON(w, http.StatusOK, body)
		return
	}
	key := prefix + rawQuery
	body, _, _, err := readThrough(s, s.rawCache, hashKey(key), key, layerRaw, false, func() ([]byte, int64, error) {
		status, body, msg := render(rawQuery)
		if status != http.StatusOK {
			return nil, 0, &statusError{status: status, msg: msg}
		}
		return body, 0, nil
	})
	if err != nil {
		status, msg := errStatus(err)
		writeError(w, status, msg)
		return
	}
	writeRawJSON(w, http.StatusOK, body)
}

// renderCompare computes the /v1/compare response body for a raw query.
func (s *Server) renderCompare(rawQuery string) (int, []byte, string) {
	q, _ := url.ParseQuery(rawQuery) // best-effort, matching r.URL.Query()
	m, err := s.paramsFromValues(q)
	if err != nil {
		return http.StatusBadRequest, nil, err.Error()
	}
	p1, err := profileFromString(q.Get("p1"))
	if err != nil {
		return http.StatusBadRequest, nil, "p1: " + err.Error()
	}
	p2, err := profileFromString(q.Get("p2"))
	if err != nil {
		return http.StatusBadRequest, nil, "p2: " + err.Error()
	}
	resp := CompareResponse{Winner: 0}
	switch core.Compare(m, p1, p2) {
	case 1:
		resp.Winner = 1
	case -1:
		resp.Winner = 2
	}
	resp.P1 = measureResponse(m, p1)
	resp.P2 = measureResponse(m, p2)
	return marshalBody(resp)
}

// renderSpeedup computes the /v1/speedup response body for a raw query.
func (s *Server) renderSpeedup(rawQuery string) (int, []byte, string) {
	q, _ := url.ParseQuery(rawQuery)
	m, err := s.paramsFromValues(q)
	if err != nil {
		return http.StatusBadRequest, nil, err.Error()
	}
	p, err := profileFromString(q.Get("profile"))
	if err != nil {
		return http.StatusBadRequest, nil, err.Error()
	}
	phiStr, psiStr := q.Get("phi"), q.Get("psi")
	var (
		choice core.SpeedupChoice
		mode   string
	)
	switch {
	case phiStr != "" && psiStr != "":
		return http.StatusBadRequest, nil, "pass exactly one of phi, psi"
	case phiStr != "":
		phi, perr := strconv.ParseFloat(phiStr, 64)
		if perr != nil {
			return http.StatusBadRequest, nil, "bad phi"
		}
		choice, err = core.BestAdditive(m, p, phi)
		mode = "additive"
	case psiStr != "":
		psi, perr := strconv.ParseFloat(psiStr, 64)
		if perr != nil {
			return http.StatusBadRequest, nil, "bad psi"
		}
		choice, err = core.BestMultiplicative(m, p, psi)
		mode = "multiplicative"
	default:
		return http.StatusBadRequest, nil, "pass one of phi, psi"
	}
	if err != nil {
		return http.StatusUnprocessableEntity, nil, err.Error()
	}
	return marshalBody(SpeedupResponse{
		Index: choice.Index, After: choice.After, WorkRatio: choice.WorkRatio, Mode: mode,
	})
}

// marshalBody renders v exactly as writeJSON's json.Encoder would — Marshal
// plus the trailing newline — so cached bodies are byte-identical to the
// uncached path.
func marshalBody(v interface{}) (int, []byte, string) {
	b, err := json.Marshal(v)
	if err != nil {
		return http.StatusInternalServerError, nil, err.Error()
	}
	return http.StatusOK, append(b, '\n'), ""
}

// paramsFromValues overlays tau/pi/delta query parameters on the defaults.
func (s *Server) paramsFromValues(q url.Values) (model.Params, error) {
	m := s.Defaults
	for _, f := range []struct {
		key string
		dst *float64
	}{{"tau", &m.Tau}, {"pi", &m.Pi}, {"delta", &m.Delta}} {
		if v := q.Get(f.key); v != "" {
			parsed, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return m, fmt.Errorf("bad %s: %v", f.key, err)
			}
			*f.dst = parsed
		}
	}
	if err := m.Validate(); err != nil {
		return m, err
	}
	return m, nil
}
