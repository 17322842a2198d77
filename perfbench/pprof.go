package main

// A minimal reader for the gzipped protocol-buffer profiles runtime/pprof
// writes (github.com/google/pprof/proto/profile.proto), enough to attribute
// CPU samples to the package of their leaf frame with the standard library
// alone.

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Field numbers of profile.proto used here.
const (
	profSampleType  = 1 // Profile.sample_type: ValueType
	profSample      = 2 // Profile.sample: Sample
	profLocation    = 4 // Profile.location: Location
	profFunction    = 5 // Profile.function: Function
	profStringTable = 6 // Profile.string_table: string

	valueTypeType = 1 // ValueType.type: string index

	sampleLocation = 1 // Sample.location_id: repeated uint64, leaf first
	sampleValue    = 2 // Sample.value: repeated int64

	locationID   = 1 // Location.id
	locationLine = 4 // Location.line: Line, innermost inlined frame first

	lineFunction = 1 // Line.function_id

	functionID   = 1 // Function.id
	functionName = 2 // Function.name: string index
)

// Protocol-buffer wire types.
const (
	wireVarint = 0
	wire64     = 1
	wireBytes  = 2
	wire32     = 5
)

var errTruncated = errors.New("pprof: truncated message")

// pbReader walks the fields of one encoded message.
type pbReader struct{ b []byte }

func (r *pbReader) varint() (uint64, error) {
	var v uint64
	for shift := 0; shift < 64; shift += 7 {
		if len(r.b) == 0 {
			return 0, errTruncated
		}
		c := r.b[0]
		r.b = r.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("pprof: varint overflows 64 bits")
}

// next reads one field: its number, wire type, varint value (wireVarint) and
// payload (wireBytes). Fixed-width fields are skipped with empty values.
func (r *pbReader) next() (num int, wire int, v uint64, payload []byte, err error) {
	key, err := r.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	num, wire = int(key>>3), int(key&7)
	switch wire {
	case wireVarint:
		v, err = r.varint()
	case wireBytes:
		var n uint64
		if n, err = r.varint(); err == nil {
			if n > uint64(len(r.b)) {
				return 0, 0, 0, nil, errTruncated
			}
			payload, r.b = r.b[:n], r.b[n:]
		}
	case wire64, wire32:
		n := 8
		if wire == wire32 {
			n = 4
		}
		if len(r.b) < n {
			return 0, 0, 0, nil, errTruncated
		}
		r.b = r.b[n:]
	default:
		err = fmt.Errorf("pprof: unsupported wire type %d", wire)
	}
	return num, wire, v, payload, err
}

// appendUints appends a repeated integer field, packed or not.
func appendUints(dst []uint64, wire int, v uint64, payload []byte) ([]uint64, error) {
	if wire == wireVarint {
		return append(dst, v), nil
	}
	p := pbReader{payload}
	for len(p.b) > 0 {
		x, err := p.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

// fieldValue returns the last varint value of field want in msg.
func fieldValue(msg []byte, want int) (uint64, error) {
	r := pbReader{msg}
	var out uint64
	for len(r.b) > 0 {
		num, wire, v, _, err := r.next()
		if err != nil {
			return 0, err
		}
		if num == want && wire == wireVarint {
			out = v
		}
	}
	return out, nil
}

// cpuSamples decodes a gzipped CPU profile into the CPU time of each leaf
// function (the innermost inlined frame of a sample's first location), in
// the profile's own unit.
func cpuSamples(profile []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	var (
		strs      []string
		typeIdx   []uint64              // string index of each sample type
		samples   [][2][]uint64         // per sample: location IDs, values
		locLeaf   = map[uint64]uint64{} // location ID → leaf function ID
		funcNames = map[uint64]uint64{} // function ID → name string index
	)
	r := pbReader{raw}
	for len(r.b) > 0 {
		num, wire, _, payload, err := r.next()
		if err != nil {
			return nil, err
		}
		if wire != wireBytes {
			continue
		}
		switch num {
		case profStringTable:
			strs = append(strs, string(payload))
		case profSampleType:
			t, err := fieldValue(payload, valueTypeType)
			if err != nil {
				return nil, err
			}
			typeIdx = append(typeIdx, t)
		case profSample:
			var s [2][]uint64
			sr := pbReader{payload}
			for len(sr.b) > 0 {
				fnum, fwire, v, p, err := sr.next()
				if err != nil {
					return nil, err
				}
				if fnum == sampleLocation || fnum == sampleValue {
					if s[fnum-1], err = appendUints(s[fnum-1], fwire, v, p); err != nil {
						return nil, err
					}
				}
			}
			samples = append(samples, s)
		case profLocation:
			var id, leaf uint64
			haveLeaf := false
			lr := pbReader{payload}
			for len(lr.b) > 0 {
				fnum, _, v, p, err := lr.next()
				if err != nil {
					return nil, err
				}
				switch {
				case fnum == locationID:
					id = v
				case fnum == locationLine && !haveLeaf:
					if leaf, err = fieldValue(p, lineFunction); err != nil {
						return nil, err
					}
					haveLeaf = true
				}
			}
			locLeaf[id] = leaf
		case profFunction:
			id, err := fieldValue(payload, functionID)
			if err != nil {
				return nil, err
			}
			if funcNames[id], err = fieldValue(payload, functionName); err != nil {
				return nil, err
			}
		}
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	// CPU profiles carry samples/count and cpu/nanoseconds; weigh by time.
	valueAt := -1
	for i, t := range typeIdx {
		if str(t) == "cpu" {
			valueAt = i
		}
	}
	if valueAt < 0 {
		return nil, errors.New("pprof: profile has no cpu sample type")
	}
	out := map[string]int64{}
	for _, s := range samples {
		if len(s[0]) == 0 || valueAt >= len(s[1]) {
			continue
		}
		name := str(funcNames[locLeaf[s[0][0]]])
		out[name] += int64(s[1][valueAt])
	}
	return out, nil
}

// funcLayer names the layer a function belongs to: the package name under
// imtao/internal, "runtime" for the Go runtime, "other" otherwise.
func funcLayer(fn string) string {
	if i := strings.IndexAny(fn, "[("); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndex(fn, "/")
	pkg := fn
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	switch {
	case strings.HasPrefix(pkg, "imtao/internal/"):
		rest := strings.TrimPrefix(pkg, "imtao/internal/")
		if i := strings.Index(rest, "/"); i >= 0 {
			rest = rest[:i]
		}
		return rest
	case pkg == "runtime", strings.HasPrefix(pkg, "runtime/"),
		strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	default:
		return "other"
	}
}

// cpuShares decodes a CPU profile into each layer's share of the sampled CPU
// time, attributing every sample to the layer of its leaf function.
func cpuShares(profile []byte) (map[string]float64, error) {
	byFunc, err := cpuSamples(profile)
	if err != nil {
		return nil, err
	}
	var total int64
	byLayer := map[string]int64{}
	for fn, v := range byFunc {
		byLayer[funcLayer(fn)] += v
		total += v
	}
	shares := map[string]float64{}
	for layer, v := range byLayer {
		shares[layer] = ratio(float64(v), float64(total))
	}
	return shares, nil
}
