package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"unicode/utf8"

	"hyperprov/internal/db"
	"hyperprov/internal/engine"
	"hyperprov/internal/wal"
)

// writeJSON renders v with a status code; encoding errors past the
// header are unrecoverable and ignored.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// Machine-readable error codes of the JSON error envelope. Every error
// response has the shape {"error":{"code":"...","message":"..."}}; the
// code is stable for clients to branch on, the message is for humans.
const (
	codeBadRequest       = "bad_request"
	codeUnknownRelation  = "unknown_relation"
	codeUnknownAttribute = "unknown_attribute"
	codeUnknownIndex     = "unknown_index"
	codeBadTuple         = "bad_tuple"
	codeApplyFailed      = "apply_failed"
	codeCanceled         = "canceled"
	codeInternal         = "internal"
	codeTimeout          = "timeout"
	codeReadOnly         = "read_only"
	codeNotPersistent    = "not_persistent"
	codeFollower         = "follower"
	codeSyncing          = "syncing"
	codeReplicaLagging   = "replica_lagging"
	codeMethodNotAllowed = "method_not_allowed"
	codeUnknownRoute     = "unknown_route"
	codeBodyTooLarge     = "body_too_large"
	codeQueueFull        = "queue_full"
	codeOverloaded       = "overloaded"
	codeShedDeadline     = "shed_deadline"
)

// timeoutBody is the body http.TimeoutHandler serves on deadline; it
// must stay in sync with the envelope shape (it is written verbatim,
// not through writeError).
const timeoutBody = `{"error":{"code":"` + codeTimeout + `","message":"request timed out"}}`

type errorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// Applied, present only on partial batch failures, counts the
	// transactions durably applied before the error: txns[:applied]
	// must not be resubmitted, txns[applied:] may be.
	Applied *int `json:"applied,omitempty"`
}

type errorResponse struct {
	Error errorBody `json:"error"`
}

func writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: errorBody{Code: code, Message: fmt.Sprintf(format, args...)}})
}

// engineErrorStatus maps the engine's sentinel errors onto HTTP
// statuses and envelope codes: unknown relation / attribute / index →
// 404, malformed tuple → 400, a degraded persistent store → 503,
// cancellation → 503, anything else from applying a log → 422.
func engineErrorStatus(err error) (int, string) {
	switch {
	case errors.Is(err, wal.ErrFollower):
		return http.StatusForbidden, codeFollower
	case errors.Is(err, wal.ErrReadOnly):
		return http.StatusServiceUnavailable, codeReadOnly
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return http.StatusServiceUnavailable, codeCanceled
	case errors.Is(err, engine.ErrUnknownRelation):
		return http.StatusNotFound, codeUnknownRelation
	case errors.Is(err, engine.ErrUnknownAttribute):
		return http.StatusNotFound, codeUnknownAttribute
	case errors.Is(err, engine.ErrUnknownIndex):
		return http.StatusNotFound, codeUnknownIndex
	case errors.Is(err, engine.ErrBadTuple):
		return http.StatusBadRequest, codeBadTuple
	default:
		return http.StatusUnprocessableEntity, codeApplyFailed
	}
}

func writeEngineError(w http.ResponseWriter, err error) {
	status, code := engineErrorStatus(err)
	writeError(w, status, code, "%v", err)
}

// writeEngineErrorApplied is writeEngineError for partial batch
// failures: the envelope carries the durably-applied prefix length so
// the client knows where to resume.
func writeEngineErrorApplied(w http.ResponseWriter, err error, applied int) {
	status, code := engineErrorStatus(err)
	writeJSON(w, status, errorResponse{Error: errorBody{
		Code:    code,
		Message: fmt.Sprintf("%v", err),
		Applied: &applied,
	}})
}

// parseTuple converts a JSON value array into a typed tuple conforming
// to the relation schema: strings for string attributes, numbers for
// int (must be integral) and float attributes. Numeric strings are also
// accepted for convenience in curl sessions.
func parseTuple(rel *db.RelationSchema, raw []any) (db.Tuple, error) {
	if len(raw) != len(rel.Attrs) {
		return nil, fmt.Errorf("tuple has %d values, relation %s needs %d", len(raw), rel.Name, len(rel.Attrs))
	}
	t := make(db.Tuple, len(raw))
	for i, rv := range raw {
		a := rel.Attrs[i]
		switch a.Kind {
		case db.KindString:
			s, ok := rv.(string)
			if !ok {
				return nil, fmt.Errorf("attribute %s wants a string, got %T", a.Name, rv)
			}
			t[i] = db.S(s)
		case db.KindInt:
			switch n := rv.(type) {
			case float64:
				if n != math.Trunc(n) {
					return nil, fmt.Errorf("attribute %s wants an integer, got %v", a.Name, n)
				}
				t[i] = db.I(int64(n))
			case string:
				v, err := db.ParseValue(db.KindInt, n)
				if err != nil {
					return nil, fmt.Errorf("attribute %s: %v", a.Name, err)
				}
				t[i] = v
			default:
				return nil, fmt.Errorf("attribute %s wants an integer, got %T", a.Name, rv)
			}
		case db.KindFloat:
			switch n := rv.(type) {
			case float64:
				t[i] = db.F(n)
			case string:
				v, err := db.ParseValue(db.KindFloat, n)
				if err != nil {
					return nil, fmt.Errorf("attribute %s: %v", a.Name, err)
				}
				t[i] = v
			default:
				return nil, fmt.Errorf("attribute %s wants a float, got %T", a.Name, rv)
			}
		default:
			return nil, fmt.Errorf("attribute %s has unknown kind %v", a.Name, a.Kind)
		}
	}
	return t, nil
}

// appendJSONValue appends v in its natural JSON type exactly as
// writeJSON's encoder renders it: strings as JSON strings, ints as
// decimal integers, floats by encoding/json's rule. ok is false for a
// NaN or infinite float, which JSON cannot represent.
func appendJSONValue(dst []byte, v db.Value) (out []byte, ok bool) {
	switch v.Kind() {
	case db.KindInt:
		return strconv.AppendInt(dst, v.Int(), 10), true
	case db.KindFloat:
		return appendJSONFloat(dst, v.Float())
	default:
		return appendJSONString(dst, v.Str()), true
	}
}

// appendJSONTuple appends t as a JSON array of its values; ok is false
// when a value has no JSON rendering (see appendJSONValue).
func appendJSONTuple(dst []byte, t db.Tuple) (out []byte, ok bool) {
	ok = true
	dst = append(dst, '[')
	for i, v := range t {
		if i > 0 {
			dst = append(dst, ',')
		}
		var vok bool
		dst, vok = appendJSONValue(dst, v)
		ok = ok && vok
	}
	return append(dst, ']'), ok
}

// appendJSONFloat appends f the way encoding/json encodes a float64:
// the shortest 'f' form, switching to 'e' below 1e-6 and at or above
// 1e21 with a one-digit negative exponent (e-7, not e-07).
func appendJSONFloat(dst []byte, f float64) (out []byte, ok bool) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return dst, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, true
}

// appendJSONString appends s as a JSON string exactly as writeJSON's
// encoder (SetEscapeHTML(false)) renders it. Printable ASCII without
// quotes or backslashes — nearly every value — is copied verbatim;
// anything else goes through the encoder, which owns the escaping of
// control bytes, invalid UTF-8 and U+2028/U+2029.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' {
			var buf bytes.Buffer
			enc := json.NewEncoder(&buf)
			enc.SetEscapeHTML(false)
			_ = enc.Encode(s) // a string always encodes
			return append(dst, bytes.TrimSuffix(buf.Bytes(), []byte("\n"))...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// readBody decodes a JSON request body into dst with the server's size
// cap. An oversized body surfaces as *http.MaxBytesError in the chain,
// which writeBodyError maps to 413 body_too_large.
func (s *Server) readBody(w http.ResponseWriter, req *http.Request, dst any) error {
	req.Body = http.MaxBytesReader(w, req.Body, s.maxBody)
	dec := json.NewDecoder(req.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}

// writeBodyError renders a body read/decode failure: a typed 413 when
// the size cap was the cause, 400 bad_request otherwise.
func writeBodyError(w http.ResponseWriter, err error) {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		writeError(w, http.StatusRequestEntityTooLarge, codeBodyTooLarge,
			"request body exceeds the %d-byte limit", mbe.Limit)
		return
	}
	writeError(w, http.StatusBadRequest, codeBadRequest, "%v", err)
}
