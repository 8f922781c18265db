package grid

import (
	"bytes"
	"slices"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	if _, err := New("x", Float32); err == nil {
		t.Fatal("rank 0 accepted")
	}
	if _, err := New("x", Float32, 2, 3, 4, 5, 6); err == nil {
		t.Fatal("rank 5 accepted")
	}
	if _, err := New("x", Float32, 4, 0); err == nil {
		t.Fatal("zero dim accepted")
	}
	f, err := New("x", Float64, 3, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if f.Len() != 60 || f.Rank() != 3 {
		t.Fatalf("Len/Rank = %d/%d", f.Len(), f.Rank())
	}
}

func TestStridesAndIndex(t *testing.T) {
	f := MustNew("x", Float32, 2, 3, 4)
	st := f.Strides()
	if st[0] != 12 || st[1] != 4 || st[2] != 1 {
		t.Fatalf("Strides = %v", st)
	}
	if got := f.Index(1, 2, 3); got != 23 {
		t.Fatalf("Index = %d", got)
	}
	f.Set(7.5, 1, 2, 3)
	if f.At(1, 2, 3) != 7.5 || f.Data[23] != 7.5 {
		t.Fatal("At/Set mismatch")
	}
}

func TestFromData(t *testing.T) {
	data := []float64{1, 2, 3, 4, 5, 6}
	f, err := FromData("x", Float32, data, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if f.At(1, 2) != 6 {
		t.Fatalf("At(1,2) = %v", f.At(1, 2))
	}
	if _, err := FromData("x", Float32, data, 7); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestCloneIndependence(t *testing.T) {
	f := MustNew("x", Float64, 4)
	f.Data[0] = 1
	c := f.Clone()
	c.Data[0] = 2
	c.Dims[0] = 99
	if f.Data[0] != 1 || f.Dims[0] != 4 {
		t.Fatal("Clone shares storage")
	}
}

func TestValueRange(t *testing.T) {
	f := MustNew("x", Float32, 5)
	copy(f.Data, []float64{3, -2, 8, 0, 1})
	lo, hi := f.ValueRange()
	if lo != -2 || hi != 8 {
		t.Fatalf("ValueRange = %v, %v", lo, hi)
	}
}

func TestOriginalBytes(t *testing.T) {
	f := MustNew("x", Float32, 10)
	if f.OriginalBytes() != 40 {
		t.Fatalf("OriginalBytes = %d", f.OriginalBytes())
	}
	f.Prec = Float64
	if f.OriginalBytes() != 80 {
		t.Fatalf("OriginalBytes = %d", f.OriginalBytes())
	}
}

func TestBlocksCoverExactly(t *testing.T) {
	f := MustNew("x", Float32, 7, 5)
	blocks := Blocks(f.Dims, 3)
	// ceil(7/3)*ceil(5/3) = 3*2 = 6 blocks.
	if len(blocks) != 6 {
		t.Fatalf("blocks = %d", len(blocks))
	}
	seen := make([]int, f.Len())
	for _, b := range blocks {
		c := b.Cells(f.Strides())
		for c.Next() {
			seen[c.Flat]++
		}
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("index %d covered %d times", i, c)
		}
	}
}

func TestBlocksClipAtEdge(t *testing.T) {
	f := MustNew("x", Float32, 7)
	blocks := Blocks(f.Dims, 4)
	if len(blocks) != 2 {
		t.Fatalf("blocks = %d", len(blocks))
	}
	if blocks[1].Origin[0] != 4 || blocks[1].Size[0] != 3 {
		t.Fatalf("clipped block = %+v", blocks[1])
	}
}

func TestBlockCellsScanOrder(t *testing.T) {
	f := MustNew("x", Float32, 4, 4)
	b := Block{Origin: []int{1, 1}, Size: []int{2, 3}}
	var flats, locals []int
	c := b.Cells(f.Strides())
	for c.Next() {
		flats = append(flats, c.Flat)
		locals = append(locals, c.Local()...)
	}
	if want := []int{5, 6, 7, 9, 10, 11}; !slices.Equal(flats, want) {
		t.Fatalf("visited %v, want %v", flats, want)
	}
	if want := []int{0, 0, 0, 1, 0, 2, 1, 0, 1, 1, 1, 2}; !slices.Equal(locals, want) {
		t.Fatalf("local coordinates %v, want %v", locals, want)
	}
}

// TestBlocksMatchOdometer checks the tiling against the nested scan it
// replaced, at every rank with clipped edges, and that walking every block's
// cells allocates nothing.
func TestBlocksMatchOdometer(t *testing.T) {
	for _, dims := range [][]int{{7}, {5, 9}, {4, 8}, {17, 9, 6}, {9, 1, 6, 5}} {
		blocks := Blocks(dims, 4)
		i := 0
		var origin func(axis int, o []int)
		origin = func(axis int, o []int) {
			if axis == len(dims) {
				b := blocks[i]
				i++
				for a := range dims {
					if b.Origin[a] != o[a] || b.Size[a] != min(4, dims[a]-o[a]) {
						t.Fatalf("%v: block %d is %+v, want origin %v", dims, i-1, b, o)
					}
				}
				return
			}
			for c := 0; c < dims[axis]; c += 4 {
				origin(axis+1, append(o, c))
			}
		}
		origin(0, nil)
		if i != len(blocks) {
			t.Fatalf("%v: %d blocks, want %d", dims, len(blocks), i)
		}
		st := Strides(dims)
		if a := testing.AllocsPerRun(10, func() {
			for _, b := range blocks {
				c := b.Cells(st)
				for c.Next() {
					_ = c.Local()
				}
			}
		}); a != 0 {
			t.Fatalf("%v: walking the cells made %v allocations", dims, a)
		}
	}
}

// TestBlockWalkMatchesBlocks holds the walk to the listed tiling: block for
// block, by Next and by Seek, with Flat the first cell's index and Full
// set exactly on unclipped blocks; walking allocates nothing.
func TestBlockWalkMatchesBlocks(t *testing.T) {
	for _, dims := range [][]int{{1}, {7}, {64}, {5, 9}, {4, 8}, {17, 9, 6}, {9, 1, 6, 5}, {4, 4, 4, 4}} {
		st := Strides(dims)
		for _, edge := range []int{1, 3, 4, 6} {
			blocks := Blocks(dims, edge)
			flatOf := func(b Block) int {
				flat := 0
				for a := range dims {
					flat += b.Origin[a] * st[a]
				}
				return flat
			}
			check := func(how string, bi int, w *BlockWalk) {
				t.Helper()
				b, flat, full := blocks[bi], flatOf(blocks[bi]), true
				for a := range dims {
					full = full && b.Size[a] == edge
				}
				got := w.Block()
				if !slices.Equal(got.Origin, b.Origin) || !slices.Equal(got.Size, b.Size) || w.Flat != flat || w.Full != full {
					t.Fatalf("%v edge %d, %s block %d: %+v flat %d full %v, want %+v flat %d full %v",
						dims, edge, how, bi, got, w.Flat, w.Full, b, flat, full)
				}
			}
			w := WalkBlocks(dims, edge)
			if w.Count() != len(blocks) {
				t.Fatalf("%v edge %d: Count %d, want %d", dims, edge, w.Count(), len(blocks))
			}
			bi := 0
			for ; w.Next(); bi++ {
				check("Next", bi, &w)
			}
			if bi != len(blocks) {
				t.Fatalf("%v edge %d: walked %d blocks, want %d", dims, edge, bi, len(blocks))
			}
			for bi := len(blocks) - 1; bi >= 0; bi-- {
				w.Seek(bi)
				check("Seek", bi, &w)
				if w.Next() != (bi+1 < len(blocks)) || (bi+1 < len(blocks) && w.Flat != flatOf(blocks[bi+1])) {
					t.Fatalf("%v edge %d: Next after Seek(%d) did not land on the next block", dims, edge, bi)
				}
			}
			if a := testing.AllocsPerRun(10, func() {
				w := WalkBlocks(dims, edge)
				for w.Next() {
					c := w.Block().Cells(st)
					for c.Next() {
					}
				}
			}); a != 0 {
				t.Fatalf("%v edge %d: walking made %v allocations", dims, edge, a)
			}
		}
	}
	if w := WalkBlocks([]int{3, 0}, 4); w.Next() {
		t.Fatal("a shape with a zero axis has a block")
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	for _, prec := range []Precision{Float32, Float64} {
		f := MustNew("field", prec, 3, 5)
		for i := range f.Data {
			f.Data[i] = float64(i) * 0.25
		}
		var buf bytes.Buffer
		n, err := f.WriteTo(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if int(n) != buf.Len() {
			t.Fatalf("WriteTo returned %d, buffer has %d", n, buf.Len())
		}
		g, err := ReadFrom(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if g.Rank() != 2 || g.Dims[0] != 3 || g.Dims[1] != 5 || g.Prec != prec {
			t.Fatalf("metadata mismatch: %+v", g)
		}
		for i := range f.Data {
			if g.Data[i] != f.Data[i] {
				t.Fatalf("data[%d] = %v want %v (prec %d)", i, g.Data[i], f.Data[i], prec)
			}
		}
	}
}

func TestReadFromRejectsGarbage(t *testing.T) {
	if _, err := ReadFrom(bytes.NewReader([]byte{1, 2, 3})); err == nil {
		t.Fatal("short read accepted")
	}
	var buf bytes.Buffer
	buf.Write(make([]byte, 16))
	if _, err := ReadFrom(&buf); err == nil {
		t.Fatal("bad magic accepted")
	}
}

// Property: Index is a bijection between coordinates and [0, Len) for
// arbitrary small shapes.
func TestQuickIndexBijection(t *testing.T) {
	f := func(a, b, c uint8) bool {
		d0, d1, d2 := int(a)%5+1, int(b)%5+1, int(c)%5+1
		fld := MustNew("x", Float32, d0, d1, d2)
		seen := make(map[int]bool)
		for i := 0; i < d0; i++ {
			for j := 0; j < d1; j++ {
				for k := 0; k < d2; k++ {
					idx := fld.Index(i, j, k)
					if idx < 0 || idx >= fld.Len() || seen[idx] {
						return false
					}
					seen[idx] = true
				}
			}
		}
		return len(seen) == fld.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
