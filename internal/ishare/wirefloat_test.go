package ishare

import (
	"bytes"
	"encoding/json"
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// TestWirePow10 recomputes each row of wirePow10 with math/big: 10^-k's
// mantissa scaled into [2^127, 2^128) and rounded down.
func TestWirePow10(t *testing.T) {
	for k, row := range wirePow10 {
		den := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(k)), nil)
		m := new(big.Int).Lsh(big.NewInt(1), uint(127+den.BitLen()))
		if m.Quo(m, den); m.BitLen() > 128 {
			m.Rsh(m, 1) // a power of two (k = 0) lands one bit high
		}
		want := [2]uint64{new(big.Int).Rsh(m, 64).Uint64(), m.Uint64()}
		if m.BitLen() != 128 || row != want {
			t.Errorf("wirePow10[%d] = %#x, math/big says %#x (%d bits)", k, row, want, m.BitLen())
		}
	}
}

// TestWirePow10Up recomputes each row of wirePow10Up with math/big: 10^n's
// mantissa scaled into [2^127, 2^128), rounded down, plus one.
func TestWirePow10Up(t *testing.T) {
	for i, row := range wirePow10Up {
		n := i - 5
		ten := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(max(n, -n))), nil)
		m := new(big.Int)
		if n >= 0 {
			m.Lsh(ten, uint(128-ten.BitLen()))
		} else { // 2^-len < 10^n < 2^(1-len), len the bits of 10^-n
			m.Quo(m.Lsh(big.NewInt(1), uint(127+ten.BitLen())), ten)
		}
		m.Add(m, big.NewInt(1))
		want := [2]uint64{new(big.Int).Rsh(m, 64).Uint64(), m.Uint64()}
		if m.BitLen() != 128 || row != want {
			t.Errorf("wirePow10Up[%d] (10^%d) = %#x, math/big says %#x (%d bits)", i, n, row, want, m.BitLen())
		}
	}
}

// formatEdges are the floats where a shortest-digits writer is likeliest
// to go wrong: 1e-6 and 1e21, where the 'f' form begins and ends, and a
// thousand floats either side of each; each power of two from 2^-20 to 2^70, whose
// float below is half as near as the one above, and the float either side;
// loads whose shortest form has one digit (d·10^p) and either neighbour;
// loads with 17; and 5e-324, MaxFloat64 and the zeros.
func formatEdges() []float64 {
	var fs []float64
	near := func(f float64, n int) {
		fs = append(fs, f)
		for lo, hi, i := f, f, 0; i < n; i++ {
			lo, hi = math.Nextafter(lo, 0), math.Nextafter(hi, math.Inf(1))
			fs = append(fs, lo, hi)
		}
	}
	near(1e-6, 1000)
	near(1e21, 1000)
	for e := -20; e <= 70; e++ {
		near(math.Ldexp(1, e), 1)
	}
	for p := -6; p <= 20; p++ {
		for d := 1; d <= 9; d++ {
			near(float64(d)*math.Pow10(p), 1)
		}
	}
	return append(fs, 0.12345678901234568, 0.9405090880450124, 0.30000000000000004, 0.6046602879796196,
		5e-324, math.MaxFloat64, math.SmallestNonzeroFloat64*3, 0, math.Copysign(0, -1))
}

// TestWireFormatMatchesStrconv holds appendShortest to strconv's 'f'
// format at precision -1, which encoding/json writes in [1e-6, 1e21), byte
// for byte on ten million floats: uniform draws (a fleet's loads, a
// quarter of them 17 digits), random bits with an exponent in range, i/997,
// loads scaled by 10^-5 to 10^20, integers below 2^53, and formatEdges,
// each also negated.
// Among the random bits are halves of a unit in the 17th digit (2^50 to
// 2^51, a quarter past an integer), which round to even. It also holds
// wireEnc.float, which writes the rest with strconv, to encoding/json on
// formatEdges and their negations.
func TestWireFormatMatchesStrconv(t *testing.T) {
	var got, want []byte
	n := 0
	check := func(f float64) {
		for _, f := range [2]float64{f, -f} {
			got, want = appendShortest(got[:0], f), strconv.AppendFloat(want[:0], f, 'f', -1, 64)
			if !bytes.Equal(got, want) {
				t.Fatalf("appendShortest(%#x) = %s, strconv says %s", math.Float64bits(f), got, want)
			}
		}
		n += 2
	}
	for _, f := range formatEdges() {
		for _, f := range [2]float64{f, -f} {
			e := wireEnc{ok: true}
			e.float("", f, true)
			want, err := json.Marshal(f)
			if !e.ok || err != nil || !bytes.Equal(e.b, want) {
				t.Fatalf("float(%#x) wrote %s (ok %v), encoding/json %s (%v)", math.Float64bits(f), e.b, e.ok, want, err)
			}
		}
		if a := math.Abs(f); a >= 1e-6 && a < 1e21 {
			check(f)
		}
	}
	lo, hi := math.Float64bits(1e-6), math.Float64bits(1e21)
	rng := rand.New(rand.NewSource(46))
	for i := 0; n < 10_000_000; i++ {
		x := rng.Float64()
		check(max(x, 1e-6))
		check(math.Float64frombits(lo + rng.Uint64()%(hi-lo)))
		check(float64(i%997+1) / 997)
		check(max(x*math.Pow10(rng.Intn(26)-5), 1e-6))
		check(float64(1 + rng.Int63n(1<<53)))
	}
}

// halfway returns the exact decimal of the point halfway between x > 0
// and the next float64 up: a value floatValue must round to even.
func halfway(x float64) string {
	mant, exp := math.Frexp(x) // x = mant·2^exp, mant in [0.5, 1)
	h := new(big.Int).SetUint64(uint64(math.Ldexp(mant, 53)))
	h.Lsh(h, 1).Add(h, big.NewInt(1)) // (2·m + 1)·2^(exp-54)
	s := exp - 54
	if s >= 0 {
		return h.Lsh(h, uint(s)).String()
	}
	digits := h.Mul(h, new(big.Int).Exp(big.NewInt(5), big.NewInt(int64(-s)), nil)).String()
	if len(digits) <= -s {
		digits = strings.Repeat("0", -s-len(digits)+1) + digits
	}
	return strings.TrimRight(digits[:len(digits)+s]+"."+digits[len(digits)+s:], "0")
}

// decimalOf writes mantissa m with frac digits after the point.
func decimalOf(m uint64, frac int) string {
	d := strconv.FormatUint(m, 10)
	if frac == 0 {
		return d
	}
	if len(d) <= frac {
		d = strings.Repeat("0", frac-len(d)+1) + d
	}
	return d[:len(d)-frac] + "." + d[len(d)-frac:]
}

// TestWireFloatMatchesStrconv holds floatValue bit for bit to
// strconv.ParseFloat, which is what encoding/json calls, on a million
// numbers of the shapes that reach each of its steps: shortest 'f' forms
// of random doubles (a fleet's loads), 17- to 19-digit decimals with up to
// 23 fraction digits, points exactly halfway between two doubles and one
// unit in the last digit either side, and minus zero; each also negated.
// It also counts how many took the Eisel–Lemire step and how many it
// passed on to strconv, so a change that stops either shows.
func TestWireFloatMatchesStrconv(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	var decided, undecided int
	check := func(s string) {
		t.Helper()
		for _, s := range [2]string{s, "-" + s} {
			want, err := strconv.ParseFloat(s, 64)
			if err != nil {
				t.Fatalf("%s: %v", s, err)
			}
			var got float64
			j, st := floatValue(&got, []byte(s+","), 0)
			if st != wireDone || j != len(s) || math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("floatValue(%s) = %v (%#x), took %d bytes, status %d; strconv says %v (%#x)",
					s, got, math.Float64bits(got), j, st, want, math.Float64bits(want))
			}
		}
		m, frac, ok := elShape(s)
		if !ok {
			return
		}
		if f, ok := eiselLemire(m, frac); !ok {
			undecided++
		} else if want, _ := strconv.ParseFloat(s, 64); f != want {
			t.Fatalf("eiselLemire(%d, %d) = %v, strconv says %v for %s", m, frac, f, want, s)
		} else {
			decided++
		}
	}
	for _, s := range []string{"0", "0.0", "0.0000000000000000000000"} {
		check(s)
	}
	for i := 0; i < 125_000; i++ {
		x := rng.Float64() * math.Pow10(rng.Intn(24)-6)
		check(strconv.FormatFloat(x, 'f', -1, 64))
		check(strconv.FormatFloat(rng.Float64(), 'f', -1, 64))

		digits := 17 + rng.Intn(3)
		m := uint64(math.Pow10(digits-1)) + rng.Uint64()%uint64(9*math.Pow10(digits-1))
		check(decimalOf(m, rng.Intn(24)))
		check(decimalOf(m, 22+rng.Intn(2)))

		h := halfway(math.Ldexp(1+rng.Float64(), 49+rng.Intn(14)))
		check(h)
		if !strings.Contains(h, ".") {
			continue
		}
		last := h[len(h)-1] - '0' // an odd 5, so neither neighbour leaves a trailing zero
		check(h[:len(h)-1] + string('0'+last-1))
		check(h[:len(h)-1] + string('0'+last+1))
	}
	t.Logf("Eisel–Lemire decided %d numbers and passed %d to strconv", decided, undecided)
	if decided < 300_000 || undecided == 0 {
		t.Errorf("Eisel–Lemire decided %d numbers and passed %d to strconv: the test no longer reaches one of its outcomes", decided, undecided)
	}
}

// elShape reports the mantissa and fraction digits of a plain decimal that
// floatValue hands to eiselLemire: at most 19 significant digits, at most
// 22 after the point, and a mantissa of 2^53 or more.
func elShape(s string) (m uint64, frac int, ok bool) {
	whole, f, _ := strings.Cut(s, ".")
	digits := strings.TrimLeft(whole+f, "0")
	if len(digits) > 19 || len(f) > 22 {
		return 0, 0, false
	}
	m, err := strconv.ParseUint("0"+digits, 10, 64)
	return m, len(f), err == nil && m >= 1<<53
}
