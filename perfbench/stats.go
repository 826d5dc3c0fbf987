package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"
)

// Percentiles. A tail percentile is only as good as the samples beyond
// it, so the harness reports the highest percentile, up to the one asked
// for, that leaves at least minBeyond samples above it.

const minBeyond = 10

// pctIndex is the sorted-sample index reported for quantile q of n
// samples: the nearest-rank index of q, capped so that minBeyond samples
// lie beyond it, and never below the median.
func pctIndex(n int, q float64) int {
	if n <= 0 {
		return -1
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if capIdx := n - 1 - minBeyond; i > capIdx {
		i = capIdx
	}
	if med := (n+1)/2 - 1; i < med {
		i = med
	}
	if i < 0 {
		i = 0
	}
	return i
}

// pct reports quantile q of samples under the rule above; sorted must
// be in ascending order. It returns 0 for no samples.
func pct(sorted []time.Duration, q float64) time.Duration {
	i := pctIndex(len(sorted), q)
	if i < 0 {
		return 0
	}
	return sorted[i]
}

// effectiveQ is the quantile pct actually reports for n samples.
func effectiveQ(n int, q float64) float64 {
	if n <= 0 {
		return 0
	}
	return float64(pctIndex(n, q)+1) / float64(n)
}

// latencies collects per-operation durations.
type latencies []time.Duration

func (l latencies) sorted() []time.Duration {
	s := append([]time.Duration(nil), l...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// medianFloat is the median of xs (0 for none).
func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Answer digests. An answer is checked by its record count and the sum
// (mod 2^64) of a mixed 64-bit hash of each record: addition commutes,
// so the digest ignores record order, while a dropped, duplicated or
// altered record changes it.

type digest struct {
	Count int
	Sum   uint64
}

func (d *digest) add(rec []string) {
	d.Count++
	d.Sum += recordHash(rec)
}

func (d digest) String() string { return fmt.Sprintf("%d records, hash %016x", d.Count, d.Sum) }

// recordHash is FNV-1a over the fields with a separator byte, finished
// with the splitmix64 mixer so that sums of hashes stay well spread.
func recordHash(rec []string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, f := range rec {
		for i := 0; i < len(f); i++ {
			h ^= uint64(f[i])
			h *= prime
		}
		h ^= 0xff
		h *= prime
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// digestOf digests a record list.
func digestOf[R ~[]string](recs []R) digest {
	var d digest
	for _, r := range recs {
		d.add(r)
	}
	return d
}

// Inputs. Every workload's relation and query pool come from the seed
// through this generator alone, so the program under test sees only
// generated values and the inputs stay fixed while the program changes.

// field is one generated field's value universe.
type field struct {
	Name  string  `json:"name"`
	Card  int     `json:"cardinality"`
	ZipfS float64 `json:"zipf_s,omitempty"` // 0 = uniform
	ZipfV float64 `json:"zipf_v,omitempty"` // head offset: P(k) ~ (ZipfV+k)^-ZipfS; 0 means 1
}

func (f field) value(v int) string { return fmt.Sprintf("%s-%d", f.Name, v) }

// genRecords draws n records, each field independently from its
// universe.
func genRecords(fields []field, n int, rng *rand.Rand) [][]string {
	draw := make([]func() int, len(fields))
	for i, f := range fields {
		if f.ZipfS > 1 {
			z := rand.NewZipf(rng, f.ZipfS, max(f.ZipfV, 1), uint64(f.Card-1))
			draw[i] = func() int { return int(z.Uint64()) }
		} else {
			card := f.Card
			draw[i] = func() int { return rng.Intn(card) }
		}
	}
	// Values are interned per field so records share their strings.
	names := make([][]string, len(fields))
	for i, f := range fields {
		names[i] = make([]string, f.Card)
		for v := range names[i] {
			names[i][v] = f.value(v)
		}
	}
	out := make([][]string, n)
	for r := range out {
		rec := make([]string, len(fields))
		for i := range fields {
			rec[i] = names[i][draw[i]()]
		}
		out[r] = rec
	}
	return out
}

// pmQuery is one pooled query: a value per field, "" where the field is
// unspecified, plus its reference answer.
type pmQuery struct {
	Values []string
	Want   digest
}

func (q pmQuery) shape() string {
	b := make([]byte, len(q.Values))
	for i, v := range q.Values {
		if v == "" {
			b[i] = '*'
		} else {
			b[i] = 's'
		}
	}
	return string(b)
}

// asMap renders the query in the client's field-name form.
func (q pmQuery) asMap(fields []field) map[string]string {
	m := make(map[string]string)
	for i, v := range q.Values {
		if v != "" {
			m[fields[i].Name] = v
		}
	}
	return m
}

// refIndex answers partial match queries over generated records by
// scanning the shortest posting list among the specified fields. It
// shares no code with the program under test.
type refIndex struct {
	recs     [][]string
	postings []map[string][]int32
	all      digest
}

func newRefIndex(recs [][]string, nfields int) *refIndex {
	ix := &refIndex{recs: recs, postings: make([]map[string][]int32, nfields)}
	for i := range ix.postings {
		ix.postings[i] = make(map[string][]int32)
	}
	for id, r := range recs {
		for i, v := range r {
			ix.postings[i][v] = append(ix.postings[i][v], int32(id))
		}
		ix.all.add(r)
	}
	return ix
}

// answer digests every record matching values ("" = unspecified).
func (ix *refIndex) answer(values []string) digest {
	best := -1
	for i, v := range values {
		if v == "" {
			continue
		}
		if best < 0 || len(ix.postings[i][v]) < len(ix.postings[best][values[best]]) {
			best = i
		}
	}
	if best < 0 {
		return ix.all
	}
	var d digest
next:
	for _, id := range ix.postings[best][values[best]] {
		r := ix.recs[id]
		for i, v := range values {
			if v != "" && r[i] != v {
				continue next
			}
		}
		d.add(r)
	}
	return d
}

// drawPool draws n queries: each takes its specified values from a
// random record (so every answer is non-empty and hot values are asked
// for as often as they are stored), with the shape chosen by shapeOf.
func drawPool(recs [][]string, n int, rng *rand.Rand, shapeOf func(*rand.Rand) []bool) []pmQuery {
	out := make([]pmQuery, n)
	for k := range out {
		src := recs[rng.Intn(len(recs))]
		spec := shapeOf(rng)
		vals := make([]string, len(src))
		for i := range src {
			if spec[i] {
				vals[i] = src[i]
			}
		}
		out[k] = pmQuery{Values: vals}
	}
	return out
}

// fillReference computes every pooled query's reference answer.
func fillReference(ix *refIndex, pool []pmQuery) {
	for k := range pool {
		pool[k].Want = ix.answer(pool[k].Values)
	}
}
