package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
)

// A minimal reader for the gzipped profile.proto that runtime/pprof
// writes: just the fields needed to attribute CPU samples to functions
// and labels. The repository is standard-library only, so the pprof
// packages outside it are not available.

type pbSample struct {
	locs   []uint64
	values []int64
	labels map[string]string
}

type cpuProfile struct {
	samples []pbSample
	// stacks[loc] lists the function names of one location, innermost
	// (inlined) first.
	stacks map[uint64][]string
}

// parseProfile decodes a CPU profile as written by pprof.StopCPUProfile.
func parseProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		strs     []string
		samples  [][]byte
		locFuncs = map[uint64][]uint64{}
		funcName = map[uint64]int64{}
	)
	err = pbFields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2:
			samples = append(samples, b)
		case 4:
			var id uint64
			var fns []uint64
			err := pbFields(b, func(n int, v uint64, lb []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return pbFields(lb, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := pbFields(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	p := &cpuProfile{stacks: map[uint64][]string{}}
	for id, fns := range locFuncs {
		names := make([]string, len(fns))
		for i, f := range fns {
			names[i] = str(funcName[f])
		}
		p.stacks[id] = names
	}
	for _, sb := range samples {
		s := pbSample{labels: map[string]string{}}
		err := pbFields(sb, func(n int, v uint64, b []byte) error {
			switch n {
			case 1:
				if b != nil {
					return pbPacked(b, func(v uint64) { s.locs = append(s.locs, v) })
				}
				s.locs = append(s.locs, v)
			case 2:
				if b != nil {
					return pbPacked(b, func(v uint64) { s.values = append(s.values, int64(v)) })
				}
				s.values = append(s.values, int64(v))
			case 3:
				var k, sv int64
				err := pbFields(b, func(n int, v uint64, _ []byte) error {
					switch n {
					case 1:
						k = int64(v)
					case 2:
						sv = int64(v)
					}
					return nil
				})
				s.labels[str(k)] = str(sv)
				return err
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// pbFields walks one protobuf message, calling fn with each field's
// number and either its varint value or (length-delimited) its bytes.
func pbFields(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n == 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var sub []byte
		switch wire {
		case 0:
			if v, n = pbVarint(b); n == 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := pbVarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			sub = b[n : n+int(l)] // non-nil even when empty, unlike a varint field's
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, v, sub); err != nil {
			return err
		}
	}
	return nil
}

// pbPacked decodes a packed repeated varint field.
func pbPacked(b []byte, fn func(uint64)) error {
	for len(b) > 0 {
		v, n := pbVarint(b)
		if n == 0 {
			return errTruncated
		}
		fn(v)
		b = b[n:]
	}
	return nil
}

func pbVarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}
