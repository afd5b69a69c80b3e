package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"time"

	"hyperprov/internal/db"
	"hyperprov/internal/subscribe"
)

// frameRec is one frame read off the stream with its arrival time,
// its rows already reduced to canonical keys: the full-state frames of
// what-if subscriptions run to the whole database, and holding them as
// decoded JSON would make the client's heap rival the server's.
type frameRec struct {
	typ, id, label string
	at             time.Time
	rows           []keyedRow // ack and resync
	added, removed []keyedRow
	changed        []keyedRow
	errMsg         string
}

type keyedRow struct{ key, annot string }

func keyRows(s *db.Schema, rows []subscribe.Row) ([]keyedRow, error) {
	out := make([]keyedRow, len(rows))
	for i, row := range rows {
		k, err := jsonTupleKey(s, row.Rel, row.Tuple)
		if err != nil {
			return nil, err
		}
		out[i] = keyedRow{k, row.Annotation}
	}
	return out, nil
}

func keyFrame(s *db.Schema, f subscribe.Frame, at time.Time) (frameRec, error) {
	fr := frameRec{typ: f.Type, id: f.ID, label: f.Label, at: at, errMsg: f.Code + " " + f.Message}
	var err error
	for _, p := range []struct {
		dst *[]keyedRow
		src []subscribe.Row
	}{{&fr.rows, f.Rows}, {&fr.added, f.Added}, {&fr.removed, f.Removed}, {&fr.changed, f.Changed}} {
		if *p.dst, err = keyRows(s, p.src); err != nil {
			return fr, err
		}
	}
	return fr, nil
}

type stream struct {
	resp   *http.Response
	cancel context.CancelFunc
	mu     sync.Mutex
	frames []frameRec
	deltas int
	err    error
	done   chan struct{}
}

func (r *round) specs() []subscribe.Spec {
	var sp []subscribe.Spec
	sp = append(sp, subscribe.Spec{ID: "abort", Kind: subscribe.KindAbort, Labels: []string{r.abortLabel}})
	if r.deleteAnnot != "" {
		sp = append(sp, subscribe.Spec{ID: "deletion", Kind: subscribe.KindDeletion, Tuples: []string{r.deleteAnnot}})
	}
	for _, w := range r.watches {
		m := make([]any, len(w.match))
		for i, v := range w.match {
			if v != nil {
				m[i] = tupleValues(db.Tuple{*v})[0]
			}
		}
		sp = append(sp, subscribe.Spec{ID: w.id, Kind: subscribe.KindWatch, Rel: w.rel, Match: m})
	}
	return sp
}

// openStream opens the SSE subscription and starts its reader (the
// client's second goroutine), returning once every ack has arrived.
func openStream(cl *client, r *round) (*stream, error) {
	q := url.Values{}
	for _, sp := range r.specs() {
		b, _ := json.Marshal(sp)
		q.Add("spec", string(b))
	}
	q.Set("buffer", "65536")
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, "GET", r.subSrv.url+"/v1/subscribe?"+q.Encode(), nil)
	resp, err := cl.hc.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("%d %s", resp.StatusCode, b)
	}
	s := &stream{resp: resp, cancel: cancel, done: make(chan struct{})}
	acked := make(chan struct{})
	var ackedOnce sync.Once
	want := len(r.specs())
	// fail records the reader's first error and releases openStream.
	fail := func(err error) {
		s.mu.Lock()
		if s.err == nil {
			s.err = err
		}
		s.mu.Unlock()
		ackedOnce.Do(func() { close(acked) })
	}
	go func() {
		defer close(s.done)
		br := bufio.NewReaderSize(resp.Body, 1<<20)
		acks := 0
		for {
			line, err := br.ReadBytes('\n')
			if err != nil {
				fail(err) // before close, a server-side end is an error too
				return
			}
			payload, ok := bytes.CutPrefix(line, []byte("data: "))
			if !ok {
				continue
			}
			at := time.Now()
			var f subscribe.Frame
			dec := json.NewDecoder(bytes.NewReader(payload))
			dec.UseNumber()
			if err := dec.Decode(&f); err != nil {
				fail(fmt.Errorf("decoding frame: %w", err))
				return
			}
			fr, err := keyFrame(r.schema, f, at)
			if err != nil {
				fail(err)
				return
			}
			s.mu.Lock()
			s.frames = append(s.frames, fr)
			if f.Type == "delta" {
				s.deltas++
			}
			s.mu.Unlock()
			if f.Type == "ack" {
				if acks++; acks == want {
					ackedOnce.Do(func() { close(acked) })
				}
			}
		}
	}()
	<-acked
	s.mu.Lock()
	err = s.err
	s.mu.Unlock()
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// waitDeltas waits until every delta the manager produced (after Sync)
// has been read off the stream.
func (s *stream) waitDeltas(m *subscribe.Manager) error {
	want := m.StatsSnapshot()
	deadline := time.Now().Add(30 * time.Second)
	for {
		s.mu.Lock()
		got, err := s.deltas, s.err
		s.mu.Unlock()
		if err != nil {
			return fmt.Errorf("stream: %w", err)
		}
		if uint64(got)+want.FrameDrops >= want.Deltas {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("stream: %d of %d deltas arrived", got, want.Deltas)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// close ends the stream, waits for the reader and returns the frames.
func (s *stream) close() []frameRec {
	if s == nil {
		return nil
	}
	s.cancel()
	s.resp.Body.Close()
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.frames
}

// freshAcks subscribes anew (POST, ND-JSON) and returns the ack frames:
// the state a new subscriber would start from.
func freshAcks(cl *client, r *round) (map[string][]keyedRow, error) {
	body, _ := json.Marshal(map[string]any{"subscriptions": r.specs()})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "POST", r.subSrv.url+"/v1/subscribe", bytes.NewReader(body))
	resp, err := cl.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return nil, fmt.Errorf("fresh subscribe: %d %s", resp.StatusCode, b)
	}
	out := map[string][]keyedRow{}
	dec := json.NewDecoder(resp.Body)
	dec.UseNumber()
	for len(out) < len(r.specs()) {
		var f subscribe.Frame
		if err := dec.Decode(&f); err != nil {
			return nil, fmt.Errorf("fresh subscribe: %w", err)
		}
		if f.Type == "ack" {
			if out[f.ID], err = keyRows(r.schema, f.Rows); err != nil {
				return nil, fmt.Errorf("fresh subscribe: %w", err)
			}
		}
	}
	return out, nil
}
