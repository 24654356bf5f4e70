package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Conv2D is a 2D convolution over an H x W x C input with F kernels of
// Kh x Kw x C, stride S, and zero padding P. Input and output are flattened
// row-major (y, x, channel). Conv layers are what ISAAC accelerates; the
// DPE compiler lowers them to matrix-vector products via im2col.
type Conv2D struct {
	H, W, C   int
	F, Kh, Kw int
	Stride    int
	Pad       int
	// K[f][kh][kw][c]
	K [][][][]float64
	B []float64
}

var _ Layer = (*Conv2D)(nil)

// NewConv2D returns a conv layer with He-uniform kernels drawn from rng.
func NewConv2D(h, w, c, f, kh, kw, stride, pad int, rng *rand.Rand) (*Conv2D, error) {
	switch {
	case h <= 0 || w <= 0 || c <= 0:
		return nil, fmt.Errorf("nn: conv input dims must be positive, got %dx%dx%d", h, w, c)
	case f <= 0 || kh <= 0 || kw <= 0:
		return nil, fmt.Errorf("nn: conv kernel dims must be positive, got %d of %dx%d", f, kh, kw)
	case stride <= 0:
		return nil, fmt.Errorf("nn: conv stride must be positive, got %d", stride)
	case pad < 0:
		return nil, fmt.Errorf("nn: conv pad must be non-negative, got %d", pad)
	case rng == nil:
		return nil, fmt.Errorf("nn: conv needs an rng for initialization")
	}
	l := &Conv2D{H: h, W: w, C: c, F: f, Kh: kh, Kw: kw, Stride: stride, Pad: pad}
	if l.OutH() <= 0 || l.OutW() <= 0 {
		return nil, fmt.Errorf("nn: conv output would be empty (%dx%d)", l.OutH(), l.OutW())
	}
	limit := math.Sqrt(6.0 / float64(kh*kw*c))
	l.K = make([][][][]float64, f)
	for fi := range l.K {
		l.K[fi] = make([][][]float64, kh)
		for y := range l.K[fi] {
			l.K[fi][y] = make([][]float64, kw)
			for x := range l.K[fi][y] {
				l.K[fi][y][x] = make([]float64, c)
				for ci := range l.K[fi][y][x] {
					l.K[fi][y][x][ci] = (rng.Float64()*2 - 1) * limit
				}
			}
		}
	}
	l.B = make([]float64, f)
	return l, nil
}

// OutH returns the output height.
func (l *Conv2D) OutH() int { return (l.H+2*l.Pad-l.Kh)/l.Stride + 1 }

// OutW returns the output width.
func (l *Conv2D) OutW() int { return (l.W+2*l.Pad-l.Kw)/l.Stride + 1 }

// Name implements Layer.
func (l *Conv2D) Name() string {
	return fmt.Sprintf("conv-%dx%dx%d-%df%dx%d", l.H, l.W, l.C, l.F, l.Kh, l.Kw)
}

// InSize implements Layer.
func (l *Conv2D) InSize() int { return l.H * l.W * l.C }

// OutSize implements Layer.
func (l *Conv2D) OutSize() int { return l.OutH() * l.OutW() * l.F }

// Flops implements Layer.
func (l *Conv2D) Flops() float64 {
	return 2 * float64(l.OutH()*l.OutW()) * float64(l.F) * float64(l.Kh*l.Kw*l.C)
}

// Params implements Layer.
func (l *Conv2D) Params() int { return l.F*l.Kh*l.Kw*l.C + l.F }

func (l *Conv2D) at(in []float64, y, x, c int) float64 {
	y -= l.Pad
	x -= l.Pad
	if y < 0 || y >= l.H || x < 0 || x >= l.W {
		return 0
	}
	return in[(y*l.W+x)*l.C+c]
}

// Forward implements Layer.
func (l *Conv2D) Forward(in []float64) ([]float64, error) {
	if len(in) != l.InSize() {
		return nil, fmt.Errorf("nn: conv input %d != %d", len(in), l.InSize())
	}
	oh, ow := l.OutH(), l.OutW()
	out := make([]float64, oh*ow*l.F)
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			for f := 0; f < l.F; f++ {
				sum := l.B[f]
				for ky := 0; ky < l.Kh; ky++ {
					for kx := 0; kx < l.Kw; kx++ {
						for c := 0; c < l.C; c++ {
							sum += l.K[f][ky][kx][c] * l.at(in, oy*l.Stride+ky, ox*l.Stride+kx, c)
						}
					}
				}
				out[(oy*ow+ox)*l.F+f] = sum
			}
		}
	}
	return out, nil
}

// FilterColumns lowers the kernels to the F columns of the (Kh*Kw*C) x F
// crossbar the DPE programs them into, so a crossbar can compute all F
// filters for one patch in a single MVM: column f is filter K[f] flattened
// in (ky, kx, c) order, the order Patch lays out an input patch. The
// columns share one slab.
func (l *Conv2D) FilterColumns() [][]float64 {
	rows := l.Kh * l.Kw * l.C
	slab := make([]float64, rows*l.F)
	cols := make([][]float64, l.F)
	for f := range cols {
		col := slab[f*rows:][:rows:rows]
		for ky := 0; ky < l.Kh; ky++ {
			for kx := 0; kx < l.Kw; kx++ {
				copy(col[(ky*l.Kw+kx)*l.C:][:l.C], l.K[f][ky][kx])
			}
		}
		cols[f] = col
	}
	return cols
}

// Patch extracts the im2col input patch for output position (oy, ox).
func (l *Conv2D) Patch(in []float64, oy, ox int) ([]float64, error) {
	if len(in) != l.InSize() {
		return nil, fmt.Errorf("nn: conv input %d != %d", len(in), l.InSize())
	}
	if oy < 0 || oy >= l.OutH() || ox < 0 || ox >= l.OutW() {
		return nil, fmt.Errorf("nn: patch (%d,%d) outside %dx%d", oy, ox, l.OutH(), l.OutW())
	}
	patch := make([]float64, l.Kh*l.Kw*l.C)
	for ky := 0; ky < l.Kh; ky++ {
		for kx := 0; kx < l.Kw; kx++ {
			for c := 0; c < l.C; c++ {
				patch[(ky*l.Kw+kx)*l.C+c] = l.at(in, oy*l.Stride+ky, ox*l.Stride+kx, c)
			}
		}
	}
	return patch, nil
}

// MaxPool2D downsamples an H x W x C input with non-overlapping PxP windows.
type MaxPool2D struct {
	H, W, C int
	P       int
}

var _ Layer = (*MaxPool2D)(nil)

// NewMaxPool2D returns a pooling layer. H and W must divide evenly by p.
func NewMaxPool2D(h, w, c, p int) (*MaxPool2D, error) {
	if h <= 0 || w <= 0 || c <= 0 || p <= 0 {
		return nil, fmt.Errorf("nn: pool dims must be positive")
	}
	if h%p != 0 || w%p != 0 {
		return nil, fmt.Errorf("nn: pool %d must divide %dx%d", p, h, w)
	}
	return &MaxPool2D{H: h, W: w, C: c, P: p}, nil
}

// Name implements Layer.
func (l *MaxPool2D) Name() string { return fmt.Sprintf("maxpool-%d", l.P) }

// InSize implements Layer.
func (l *MaxPool2D) InSize() int { return l.H * l.W * l.C }

// OutSize implements Layer.
func (l *MaxPool2D) OutSize() int { return (l.H / l.P) * (l.W / l.P) * l.C }

// Flops implements Layer.
func (l *MaxPool2D) Flops() float64 { return float64(l.InSize()) }

// Params implements Layer.
func (l *MaxPool2D) Params() int { return 0 }

// Forward implements Layer.
func (l *MaxPool2D) Forward(in []float64) ([]float64, error) {
	if len(in) != l.InSize() {
		return nil, fmt.Errorf("nn: pool input %d != %d", len(in), l.InSize())
	}
	oh, ow := l.H/l.P, l.W/l.P
	out := make([]float64, oh*ow*l.C)
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			for c := 0; c < l.C; c++ {
				best := math.Inf(-1)
				for py := 0; py < l.P; py++ {
					for px := 0; px < l.P; px++ {
						v := in[((oy*l.P+py)*l.W+(ox*l.P+px))*l.C+c]
						if v > best {
							best = v
						}
					}
				}
				out[(oy*ow+ox)*l.C+c] = best
			}
		}
	}
	return out, nil
}
