package kernel

// The inner loops of every global fill (Forward, Backward, FillRegion) for
// both gap models. Each loop takes its lanes already cut to the columns it
// computes and reslices them to one common length before the loop, so the
// compiler proves every index in range and the loop bodies carry no bounds
// checks (go build -gcflags=-d=ssa/check_bce/debug=1 reports none inside a
// loop in this file). Score lookups index a 256-entry matrix row with a
// byte, which needs no check either.
//
// The *2 loops advance two DP rows per pass: the second row's cell j is
// computed right after the first row's cell j and takes it as its "up"
// value, so two left-neighbour dependency chains are in flight at once and
// a sweep's working lanes are loaded and stored once per two cells. The
// second row's diagonal is the first row's previous cell, which is why the
// pair loops carry no second diagonal. The single-row loops serve odd
// tails.
//
// Argument conventions: diag is the row above's value at the column just
// before the first computed one, h (h1, h2) each computed row's value there
// and, affine, f (f1, f2) its F value; s (s1, s2) are the rows' score rows.
// The loops return the last computed values of h (and f).

// linRow computes one row of the linear recurrence left to right: up holds
// the row above, out receives the new row and may alias up.
func linRow(up, out []int64, b []byte, s *[256]int16, diag, h, gap int64) int64 {
	out = out[:len(up)]
	b = b[:len(up)]
	_ = *s // one nil check, outside the loop
	for j, c := range b {
		u := up[j]
		h = max(diag+int64(s[c]), u+gap, h+gap)
		out[j] = h
		diag = u
	}
	return h
}

// linRows2 advances row in place by two linear rows, storing only the
// second.
func linRows2(row []int64, b []byte, s1, s2 *[256]int16, diag, h1, h2, gap int64) (int64, int64) {
	b = b[:len(row)]
	_, _ = *s1, *s2 // one nil check each, outside the loop
	for j, c := range b {
		u := row[j]
		n1 := max(diag+int64(s1[c]), u+gap, h1+gap)
		h2 = max(h1+int64(s2[c]), n1+gap, h2+gap)
		row[j] = h2
		diag, h1 = u, n1
	}
	return h1, h2
}

// linRect2 computes two stored linear rows from the row above them. Entry
// 0 of each lane is the column before the first computed one.
func linRect2(up, out1, out2 []int64, b []byte, s1, s2 *[256]int16, gap int64) {
	diag, h1, h2 := up[0], out1[0], out2[0]
	up = up[1:]
	out1, out2 = out1[1:][:len(up)], out2[1:][:len(up)]
	b = b[:len(up)]
	_, _ = *s1, *s2 // one nil check each, outside the loop
	for j, c := range b {
		u := up[j]
		n1 := max(diag+int64(s1[c]), u+gap, h1+gap)
		h2 = max(h1+int64(s2[c]), n1+gap, h2+gap)
		out1[j] = n1
		out2[j] = h2
		diag, h1 = u, n1
	}
}

// linRowBack computes one row of the linear suffix recurrence right to left
// in place over row, whose entries hold the row below on entry.
func linRowBack(row []int64, b []byte, s *[256]int16, diag, h, gap int64) int64 {
	b = b[:len(row)]
	_ = *s // one nil check, outside the loop
	for j := len(b) - 1; j >= 0; j-- {
		d := row[j]
		h = max(diag+int64(s[b[j]]), d+gap, h+gap)
		row[j] = h
		diag = d
	}
	return h
}

// linRowsBack2 advances row in place by two linear suffix rows, storing
// only the second (the upper one).
func linRowsBack2(row []int64, b []byte, s1, s2 *[256]int16, diag, h1, h2, gap int64) (int64, int64) {
	b = b[:len(row)]
	_, _ = *s1, *s2 // one nil check each, outside the loop
	for j := len(b) - 1; j >= 0; j-- {
		c := b[j]
		d := row[j]
		n1 := max(diag+int64(s1[c]), d+gap, h1+gap)
		h2 = max(h1+int64(s2[c]), n1+gap, h2+gap)
		row[j] = h2
		diag, h1 = d, n1
	}
	return h1, h2
}

// affRow computes one row of the Gotoh recurrence left to right in place
// over the H and E lanes hs and es, which hold the row above on entry.
func affRow(hs, es []int64, b []byte, s *[256]int16, diag, h, f, open, ext int64) (int64, int64) {
	es = es[:len(hs)]
	b = b[:len(hs)]
	_ = *s // one nil check, outside the loop
	oe := open + ext
	for j, c := range b {
		u := hs[j]
		e := max(es[j]+ext, u+oe)
		f = max(f+ext, h+oe)
		h = max(diag+int64(s[c]), e, f)
		hs[j], es[j] = h, e
		diag = u
	}
	return h, f
}

// affRows2 advances hs and es in place by two Gotoh rows, storing only the
// second.
func affRows2(hs, es []int64, b []byte, s1, s2 *[256]int16, diag, h1, f1, h2, f2, open, ext int64) (int64, int64, int64, int64) {
	es = es[:len(hs)]
	b = b[:len(hs)]
	_, _ = *s1, *s2 // one nil check each, outside the loop
	oe := open + ext
	for j, c := range b {
		u := hs[j]
		e1 := max(es[j]+ext, u+oe)
		f1 = max(f1+ext, h1+oe)
		n1 := max(diag+int64(s1[c]), e1, f1)
		e2 := max(e1+ext, n1+oe)
		f2 = max(f2+ext, h2+oe)
		h2 = max(h1+int64(s2[c]), e2, f2)
		hs[j], es[j] = h2, e2
		diag, h1 = u, n1
	}
	return h1, f1, h2, f2
}

// affRowBack computes one row of the Gotoh suffix recurrence right to left
// in place over hs and es, which hold the row below on entry.
func affRowBack(hs, es []int64, b []byte, s *[256]int16, diag, h, f, open, ext int64) (int64, int64) {
	es = es[:len(hs)]
	b = b[:len(hs)]
	_ = *s // one nil check, outside the loop
	oe := open + ext
	for j := len(b) - 1; j >= 0; j-- {
		d := hs[j]
		e := max(es[j]+ext, d+oe)
		f = max(f+ext, h+oe)
		h = max(diag+int64(s[b[j]]), e, f)
		hs[j], es[j] = h, e
		diag = d
	}
	return h, f
}

// affRowsBack2 advances hs and es in place by two Gotoh suffix rows,
// storing only the second (the upper one).
func affRowsBack2(hs, es []int64, b []byte, s1, s2 *[256]int16, diag, h1, f1, h2, f2, open, ext int64) (int64, int64, int64, int64) {
	es = es[:len(hs)]
	b = b[:len(hs)]
	_, _ = *s1, *s2 // one nil check each, outside the loop
	oe := open + ext
	for j := len(b) - 1; j >= 0; j-- {
		c := b[j]
		d := hs[j]
		e1 := max(es[j]+ext, d+oe)
		f1 = max(f1+ext, h1+oe)
		n1 := max(diag+int64(s1[c]), e1, f1)
		e2 := max(e1+ext, n1+oe)
		f2 = max(f2+ext, h2+oe)
		h2 = max(h1+int64(s2[c]), e2, f2)
		hs[j], es[j] = h2, e2
		diag, h1 = d, n1
	}
	return h1, f1, h2, f2
}

// planes is one stored row's H, E and F lanes, cut to the columns of a
// FillRegion tile: entry 0 is the column before the first computed one.
type planes struct{ h, e, f []int64 }

// affRect computes one stored Gotoh row from the row above (whose F lane
// is not read).
func affRect(up, out planes, b []byte, s *[256]int16, open, ext int64) {
	diag, h, f := up.h[0], out.h[0], out.f[0]
	uh := up.h[1:]
	ue := up.e[1:][:len(uh)]
	hs, es, fs := out.h[1:][:len(uh)], out.e[1:][:len(uh)], out.f[1:][:len(uh)]
	b = b[:len(uh)]
	_ = *s // one nil check, outside the loop
	oe := open + ext
	for j, c := range b {
		u := uh[j]
		e := max(ue[j]+ext, u+oe)
		f = max(f+ext, h+oe)
		h = max(diag+int64(s[c]), e, f)
		hs[j], es[j], fs[j] = h, e, f
		diag = u
	}
}

// affRect2 computes two stored Gotoh rows from the row above them.
func affRect2(up, out1, out2 planes, b []byte, s1, s2 *[256]int16, open, ext int64) {
	diag := up.h[0]
	h1, f1 := out1.h[0], out1.f[0]
	h2, f2 := out2.h[0], out2.f[0]
	uh := up.h[1:]
	ue := up.e[1:][:len(uh)]
	h1s, e1s, f1s := out1.h[1:][:len(uh)], out1.e[1:][:len(uh)], out1.f[1:][:len(uh)]
	h2s, e2s, f2s := out2.h[1:][:len(uh)], out2.e[1:][:len(uh)], out2.f[1:][:len(uh)]
	b = b[:len(uh)]
	_, _ = *s1, *s2 // one nil check each, outside the loop
	oe := open + ext
	for j, c := range b {
		u := uh[j]
		e1 := max(ue[j]+ext, u+oe)
		f1 = max(f1+ext, h1+oe)
		n1 := max(diag+int64(s1[c]), e1, f1)
		e2 := max(e1+ext, n1+oe)
		f2 = max(f2+ext, h2+oe)
		h2 = max(h1+int64(s2[c]), e2, f2)
		h1s[j], e1s[j], f1s[j] = n1, e1, f1
		h2s[j], e2s[j], f2s[j] = h2, e2, f2
		diag, h1 = u, n1
	}
}
