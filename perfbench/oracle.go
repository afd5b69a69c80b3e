package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"hyperprov/internal/db"
)

// The oracle side of every check: plain db.Database replays of the
// acknowledged log, compared with what the server answered through
// order-independent digests of tuple sets. The replays never touch the
// provenance engine, so an engine fault cannot hide in its own oracle.

// digest is an order-independent fingerprint of a set of (relation,
// tuple) pairs: the count and the wrapping sum of per-tuple hashes.
type digest struct {
	n   int
	sum uint64
}

func (d *digest) add(key string) { d.n++; d.sum += mixBytes([]byte(key)) }
func (d digest) plus(o digest) digest {
	return digest{n: d.n + o.n, sum: d.sum + o.sum}
}

func (d digest) String() string { return fmt.Sprintf("%d tuples/%016x", d.n, d.sum) }

// mixBytes is FNV-1a followed by the splitmix64 finaliser, which
// spreads FNV's low-entropy high bits so the wrapping sum of many keys
// stays collision-resistant.
func mixBytes(key []byte) uint64 {
	x := uint64(14695981039346656037)
	for _, c := range key {
		x ^= uint64(c)
		x *= 1099511628211
	}
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// tupleKey renders a typed tuple canonically: ints in decimal, floats
// in shortest round-trip form, strings quoted.
func tupleKey(rel string, t db.Tuple) string { return string(appendTupleKey(nil, rel, t)) }

func appendTupleKey(b []byte, rel string, t db.Tuple) []byte {
	b = append(b, rel...)
	for _, v := range t {
		b = append(b, '|')
		switch v.Kind() {
		case db.KindInt:
			b = strconv.AppendInt(b, v.Int(), 10)
		case db.KindFloat:
			b = strconv.AppendFloat(b, v.Float(), 'g', -1, 64)
		default:
			b = strconv.AppendQuote(b, v.Str())
		}
	}
	return b
}

// jsonTupleKey renders a tuple decoded from the server's JSON (numbers
// as json.Number) in tupleKey's form, typed by the relation schema.
func jsonTupleKey(s *db.Schema, rel string, raw []any) (string, error) {
	rs := s.Relation(rel)
	if rs == nil {
		return "", fmt.Errorf("unknown relation %q in answer", rel)
	}
	if len(raw) != len(rs.Attrs) {
		return "", fmt.Errorf("%s tuple has %d values, want %d", rel, len(raw), len(rs.Attrs))
	}
	var b strings.Builder
	b.WriteString(rel)
	for i, v := range raw {
		b.WriteByte('|')
		switch rs.Attrs[i].Kind {
		case db.KindInt:
			n, ok := v.(json.Number)
			if !ok {
				return "", fmt.Errorf("%s.%s: %v is not a number", rel, rs.Attrs[i].Name, v)
			}
			x, err := n.Int64()
			if err != nil {
				return "", err
			}
			b.WriteString(strconv.FormatInt(x, 10))
		case db.KindFloat:
			n, ok := v.(json.Number)
			if !ok {
				return "", fmt.Errorf("%s.%s: %v is not a number", rel, rs.Attrs[i].Name, v)
			}
			x, err := n.Float64()
			if err != nil {
				return "", err
			}
			b.WriteString(strconv.FormatFloat(x, 'g', -1, 64))
		default:
			str, ok := v.(string)
			if !ok {
				return "", fmt.Errorf("%s.%s: %v is not a string", rel, rs.Attrs[i].Name, v)
			}
			b.WriteString(strconv.Quote(str))
		}
	}
	return b.String(), nil
}

// answerDigest fingerprints a database answer ({"numTuples":N,
// "relations":{rel:{"attrs":[…],"tuples":[[…],…]}}}).
func answerDigest(s *db.Schema, body []byte) (digest, error) {
	var a struct {
		NumTuples int `json:"numTuples"`
		Relations map[string]struct {
			Tuples [][]any `json:"tuples"`
		} `json:"relations"`
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	if err := dec.Decode(&a); err != nil {
		return digest{}, fmt.Errorf("decoding answer: %w", err)
	}
	var g digest
	for rel, r := range a.Relations {
		for _, t := range r.Tuples {
			k, err := jsonTupleKey(s, rel, t)
			if err != nil {
				return digest{}, err
			}
			g.add(k)
		}
	}
	if g.n != a.NumTuples {
		return digest{}, fmt.Errorf("answer lists %d tuples but numTuples is %d", g.n, a.NumTuples)
	}
	return g, nil
}

// dbDigest fingerprints a plain database.
func dbDigest(d *db.Database) digest {
	var g digest
	var buf []byte
	for _, rel := range d.Schema().Names() {
		d.Instance(rel).Each(func(t db.Tuple) {
			buf = appendTupleKey(buf[:0], rel, t)
			g.n++
			g.sum += mixBytes(buf)
		})
	}
	return g
}

// replay is one oracle database advanced transaction by transaction.
type replay struct {
	d *db.Database
	// skip names a transaction label the replay leaves out (an abort
	// what-if); empty for the live replay.
	skip string
}

func (r *replay) apply(t *db.Transaction) error {
	if t.Label == r.skip {
		return nil
	}
	return r.d.ApplyTransaction(t)
}
