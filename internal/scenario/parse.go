package scenario

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/pragma-grid/pragma/internal/octant"
)

// This file parses the compact scenario grammar used by the -scenario
// flags of pragma-node replay and pragma-bench, so serving and load tests
// can run arbitrary composed workloads without writing Go:
//
//	spec    := segment (';' segment)*
//	segment := option | phases
//	option  := 'name=' str | 'dims=' NxNxN | 'seed=' int |
//	           'regrid=' int | 'depth=' (1 | 2 | 3)
//	phases  := phase (',' phase)*
//	phase   := drivers [':' snapshots]
//	drivers := driver ('+' driver)*
//	driver  := roman octant (I..VIII, canonical witness) |
//	           name [count] ['.low' | '.high']
//	name    := sheet | shock | sheets | block | blobs | point |
//	           merge | background | bg
//
// Example: "dims=48x24x24;seed=7;shock:8,block+background4:6,I:4" — a
// moving shock for 8 snapshots, then a swept block over background noise,
// then the canonical octant-I witness.

// ParseSpec parses the compact scenario grammar into a validated Spec.
// Options may appear in any order; unspecified options keep the Default()
// values. Phase snapshot counts default to 8.
func ParseSpec(s string) (Spec, error) {
	spec := Default()
	spec.Phases = nil
	sawPhases := false
	for _, seg := range strings.Split(s, ";") {
		seg = strings.TrimSpace(seg)
		if seg == "" {
			continue
		}
		if key, val, ok := splitOption(seg); ok {
			if err := applyOption(&spec, key, val); err != nil {
				return Spec{}, err
			}
			continue
		}
		if sawPhases {
			return Spec{}, fmt.Errorf("scenario: multiple phase lists (second: %q)", seg)
		}
		phases, err := parsePhases(seg)
		if err != nil {
			return Spec{}, err
		}
		spec.Phases = phases
		sawPhases = true
	}
	if err := spec.Validate(); err != nil {
		return Spec{}, err
	}
	return spec, nil
}

// splitOption recognizes key=value segments. Phase lists never contain
// '=', so the split is unambiguous.
func splitOption(seg string) (key, val string, ok bool) {
	i := strings.IndexByte(seg, '=')
	if i < 0 {
		return "", "", false
	}
	return strings.TrimSpace(seg[:i]), strings.TrimSpace(seg[i+1:]), true
}

func applyOption(spec *Spec, key, val string) error {
	switch key {
	case "name":
		spec.Name = val
		return nil
	case "dims":
		parts := strings.Split(val, "x")
		if len(parts) != 3 {
			return fmt.Errorf("scenario: dims must be NxNxN, got %q", val)
		}
		for i, p := range parts {
			n, err := strconv.Atoi(strings.TrimSpace(p))
			if err != nil {
				return fmt.Errorf("scenario: dims component %q: %w", p, err)
			}
			spec.BaseDims[i] = n
		}
		return nil
	case "seed":
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			return fmt.Errorf("scenario: seed %q: %w", val, err)
		}
		spec.Seed = n
		return nil
	case "regrid":
		n, err := strconv.Atoi(val)
		if err != nil {
			return fmt.Errorf("scenario: regrid %q: %w", val, err)
		}
		spec.RegridEvery = n
		return nil
	case "depth":
		n, err := strconv.Atoi(val)
		if err != nil {
			return fmt.Errorf("scenario: depth %q: %w", val, err)
		}
		spec.MaxDepth = n
		return nil
	default:
		return fmt.Errorf("scenario: unknown option %q", key)
	}
}

func parsePhases(seg string) ([]Phase, error) {
	var phases []Phase
	for _, tok := range strings.Split(seg, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		ph, err := parsePhase(tok)
		if err != nil {
			return nil, err
		}
		phases = append(phases, ph)
	}
	if len(phases) == 0 {
		return nil, fmt.Errorf("scenario: empty phase list %q", seg)
	}
	return phases, nil
}

func parsePhase(tok string) (Phase, error) {
	drivers := tok
	snapshots := 8
	if i := strings.IndexByte(tok, ':'); i >= 0 {
		drivers = strings.TrimSpace(tok[:i])
		n, err := strconv.Atoi(strings.TrimSpace(tok[i+1:]))
		if err != nil {
			return Phase{}, fmt.Errorf("scenario: phase %q snapshot count: %w", tok, err)
		}
		snapshots = n
	}
	ph := Phase{Snapshots: snapshots}
	for _, dtok := range strings.Split(drivers, "+") {
		dtok = strings.TrimSpace(dtok)
		if dtok == "" {
			continue
		}
		d, err := ParseDriver(dtok)
		if err != nil {
			return Phase{}, err
		}
		ph.Drivers = append(ph.Drivers, d)
	}
	if len(ph.Drivers) == 0 {
		return Phase{}, fmt.Errorf("scenario: phase %q has no drivers", tok)
	}
	return ph, nil
}

// romanOctants maps uppercase roman numerals to octants for the canonical
// witness shorthand.
var romanOctants = map[string]octant.Octant{
	"I": octant.I, "II": octant.II, "III": octant.III, "IV": octant.IV,
	"V": octant.V, "VI": octant.VI, "VII": octant.VII, "VIII": octant.VIII,
}

// ParseDriver parses one driver token of the scenario grammar: an
// uppercase roman numeral (canonical octant witness) or a driver name with
// optional count digits and '.low'/'.high' activity suffix.
func ParseDriver(tok string) (Driver, error) {
	if o, ok := romanOctants[tok]; ok {
		return ForOctant(o), nil
	}
	name := strings.ToLower(tok)
	act := Low
	actGiven := false
	if s, ok := strings.CutSuffix(name, ".high"); ok {
		name, act, actGiven = s, High, true
	} else if s, ok := strings.CutSuffix(name, ".low"); ok {
		name, act, actGiven = s, Low, true
	}
	base := strings.TrimRight(name, "0123456789")
	count := 0
	if digits := name[len(base):]; digits != "" {
		n, err := strconv.Atoi(digits)
		if err != nil {
			return nil, fmt.Errorf("scenario: driver %q count: %w", tok, err)
		}
		count = n
	}
	orDefault := func(n int) int {
		if count > 0 {
			return count
		}
		return n
	}
	switch base {
	case "sheet":
		return Sheet(act), nil
	case "shock":
		if actGiven && act == Low {
			return nil, fmt.Errorf("scenario: driver %q: shock is always high-activity", tok)
		}
		return Sheet(High), nil
	case "sheets":
		return SheetField(orDefault(4), act), nil
	case "block":
		return Block(act), nil
	case "blobs":
		return BlobField(orDefault(3), act), nil
	case "point":
		return PointSource(act), nil
	case "merge":
		return MergingFronts(), nil
	case "background", "bg":
		return Background(orDefault(4)), nil
	default:
		return nil, fmt.Errorf("scenario: unknown driver %q", tok)
	}
}
