package kernel_test

import "fastlsa/internal/kernel"

// The scalar oracle: one DP row per pass, every lane indexed directly, the
// recurrences written out exactly as docs/ALGORITHMS.md §1 states them. The
// production sweeps interleave two rows and reslice their lanes; the
// differential tests in kernel_diff_test.go hold them to these loops value
// for value.

// cloneEdge returns a deep copy of e (nil lanes stay nil).
func cloneEdge(e kernel.Edge) kernel.Edge {
	return kernel.Edge{H: cloneLane(e.H), G: cloneLane(e.G)}
}

func cloneLane(s []int64) []int64 {
	if s == nil {
		return nil
	}
	return append([]int64(nil), s...)
}

// refForward runs Forward's recurrence over a x b from the top and left
// edges and returns node row m, node column n and the cells it computed.
func refForward(k *kernel.Kernel, a, b []byte, top, left kernel.Edge) (outRow, outCol kernel.Edge, cells int64) {
	n, rows := len(b), len(a)
	open, ext := k.Mod.Open, k.Mod.Ext
	affine := k.Mod.IsAffine()
	outRow = cloneEdge(top)
	outCol = kernel.Edge{H: make([]int64, rows+1)}
	rowH, rowE := outRow.H, outRow.G
	outCol.H[0] = top.H[n]
	if affine {
		outCol.G = make([]int64, rows+1)
		outCol.G[0] = kernel.NegInf
	}
	for r := 0; r < rows; r++ {
		srow := k.M.Row(a[r])
		diag := rowH[0]
		h := left.H[r+1]
		rowH[0] = h
		var f int64
		if affine {
			f = left.G[r+1]
			rowE[0] = kernel.NegInf
		}
		for j := 1; j <= n; j++ {
			up := rowH[j]
			if affine {
				e := rowE[j] + ext
				if v := up + open + ext; v > e {
					e = v
				}
				fNew := f + ext
				if v := h + open + ext; v > fNew {
					fNew = v
				}
				f = fNew
				best := diag + int64(srow[b[j-1]])
				if e > best {
					best = e
				}
				if f > best {
					best = f
				}
				h = best
				rowE[j] = e
			} else {
				best := diag + int64(srow[b[j-1]])
				if v := up + ext; v > best {
					best = v
				}
				if v := h + ext; v > best {
					best = v
				}
				h = best
			}
			rowH[j] = h
			diag = up
			cells++
		}
		outCol.H[r+1] = h
		if affine {
			outCol.G[r+1] = f
		}
	}
	return outRow, outCol, cells
}

// refBackward runs Backward's suffix recurrence over a x b from the bottom
// and right edges and returns node row 0, node column 0 and the cells it
// computed.
func refBackward(k *kernel.Kernel, a, b []byte, bottom, right kernel.Edge) (outRow, outCol kernel.Edge, cells int64) {
	n, rows := len(b), len(a)
	open, ext := k.Mod.Open, k.Mod.Ext
	affine := k.Mod.IsAffine()
	outRow = cloneEdge(bottom)
	outCol = kernel.Edge{H: make([]int64, rows+1)}
	rowH, rowE := outRow.H, outRow.G
	outCol.H[rows] = bottom.H[0]
	if affine {
		outCol.G = make([]int64, rows+1)
		outCol.G[rows] = kernel.NegInf
	}
	for r := rows - 1; r >= 0; r-- {
		srow := k.M.Row(a[r])
		diag := rowH[n]
		h := right.H[r]
		rowH[n] = h
		var f int64
		if affine {
			f = right.G[r]
			rowE[n] = kernel.NegInf
		}
		for j := n - 1; j >= 0; j-- {
			down := rowH[j]
			if affine {
				e := rowE[j] + ext
				if v := down + open + ext; v > e {
					e = v
				}
				fNew := f + ext
				if v := h + open + ext; v > fNew {
					fNew = v
				}
				f = fNew
				best := diag + int64(srow[b[j]])
				if e > best {
					best = e
				}
				if f > best {
					best = f
				}
				h = best
				rowE[j] = e
			} else {
				best := diag + int64(srow[b[j]])
				if v := down + ext; v > best {
					best = v
				}
				if v := h + ext; v > best {
					best = v
				}
				h = best
			}
			rowH[j] = h
			diag = down
			cells++
		}
		outCol.H[r] = h
		if affine {
			outCol.G[r] = f
		}
	}
	return outRow, outCol, cells
}

// refFillRegion computes cells (r0+1..r1) x (c0+1..c1) of rt in place, as
// FillRegion does, and returns the cells it computed.
func refFillRegion(k *kernel.Kernel, a, b []byte, rt kernel.Rect, r0, r1, c0, c1 int) (cells int64) {
	stride := len(b) + 1
	open, ext := k.Mod.Open, k.Mod.Ext
	H, E, F := rt.H, rt.E, rt.F
	for r := r0 + 1; r <= r1; r++ {
		base := r * stride
		prev := base - stride
		srow := k.M.Row(a[r-1])
		for j := c0 + 1; j <= c1; j++ {
			h := H[prev+j-1] + int64(srow[b[j-1]])
			if k.Mod.IsAffine() {
				e := E[prev+j] + ext
				if v := H[prev+j] + open + ext; v > e {
					e = v
				}
				E[base+j] = e
				f := F[base+j-1] + ext
				if v := H[base+j-1] + open + ext; v > f {
					f = v
				}
				F[base+j] = f
				if e > h {
					h = e
				}
				if f > h {
					h = f
				}
			} else {
				if v := H[prev+j] + ext; v > h {
					h = v
				}
				if v := H[base+j-1] + ext; v > h {
					h = v
				}
			}
			H[base+j] = h
			cells++
		}
	}
	return cells
}
