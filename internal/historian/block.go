package historian

import (
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// Per-series block storage. Points accumulate in a mutable sorted head;
// every blockSize points the head is sealed into an immutable block that
// keeps each point as it arrived: its instant, its payload bytes and the
// number fastFloat read from them at ingest. Retention trims blocks
// logically (a drop counter on the oldest block) so Count stays exact
// without rewriting sealed blocks.

// blockSize is the head length at which a series seals a block.
const blockSize = 512

// headPoint is one resident point: instant, payload, and the numeric
// interpretation fastFloat assigned at ingest (used by rollups and
// aggregate scans without reparsing).
type headPoint struct {
	t       time.Time
	tn      int64
	payload []byte
	val     float64
	numeric bool
}

// point materializes a Point with a payload copy — readers never alias
// internal storage.
func (hp *headPoint) point() Point {
	return Point{Time: hp.t, Payload: append([]byte(nil), hp.payload...)}
}

// sealedBlock is an immutable run of blockSize points. drop counts points
// logically removed from the front by retention.
type sealedBlock struct {
	startT, endT int64 // first/last point (unix nanos, inclusive)
	count        int
	drop         int
	pts          []headPoint
}

func (b *sealedBlock) live() int { return b.count - b.drop }

// sealBlock seals pts, taking ownership of the slice.
func sealBlock(pts []headPoint) *sealedBlock {
	return &sealedBlock{startT: pts[0].tn, endT: pts[len(pts)-1].tn, count: len(pts), pts: pts}
}

// appendRange appends copies of the points with f <= t < to to out,
// skipping the first drop points (the block's retention drops).
func (b *sealedBlock) appendRange(out *[]Point, drop int, f, t int64) {
	for i := drop; i < len(b.pts); i++ {
		if p := &b.pts[i]; p.tn >= f && p.tn < t {
			*out = append(*out, p.point())
		}
	}
}

// scanAgg accumulates numeric points with f <= t < to into acc.
func (b *sealedBlock) scanAgg(f, t int64, acc *aggAcc) {
	for i := b.drop; i < len(b.pts); i++ {
		if p := &b.pts[i]; p.numeric && p.tn >= f && p.tn < t {
			acc.addPoint(p.val)
		}
	}
}

// seriesMeta carries the lock-free coordinates the query cache validates
// entries against (query.go). gen changes whenever history that looked
// settled may have changed: a block seal, an out-of-order append, a rollup
// ring eviction. boundary is the instant before which in-order appends can
// no longer land (head start, or the newest point when the head is empty);
// windows ending at or before it are cacheable. drops counts retention
// evictions — scan-backed results depend on raw points and are invalidated
// by it; rollup-backed results survive.
type seriesMeta struct {
	gen      atomic.Uint64
	boundary atomic.Int64
	drops    atomic.Uint64
}

// seriesData is the per-series storage: sealed blocks plus the mutable head.
type seriesData struct {
	blocks  []*sealedBlock
	head    []headPoint
	total   int       // live points across blocks + head (exact retention)
	overlap bool      // some block/head time ranges overlap: Range must sort
	last    headPoint // newest point (max time, latest-inserted among ties)
	rollups rollupSet
	meta    *seriesMeta
}

func newSeriesData() *seriesData {
	sd := &seriesData{meta: &seriesMeta{}}
	sd.rollups.init()
	sd.meta.boundary.Store(math.MinInt64)
	return sd
}

// seal converts the head into an immutable block. Mutation precedes the
// gen bump (appendLocked's ordering contract with the query cache).
func (sd *seriesData) seal() {
	blk := sealBlock(sd.head)
	if n := len(sd.blocks); n > 0 && blk.startT < sd.blocks[n-1].endT {
		sd.overlap = true
	}
	sd.blocks = append(sd.blocks, blk)
	sd.head = nil
	sd.meta.gen.Add(1)
}

// dropOldest removes the single oldest live point (retention).
func (sd *seriesData) dropOldest() {
	if len(sd.blocks) > 0 {
		b := sd.blocks[0]
		b.drop++
		if b.drop >= b.count {
			sd.blocks = sd.blocks[1:]
		}
	} else if len(sd.head) > 0 {
		sd.head = sd.head[1:]
	}
	sd.total--
	sd.meta.drops.Add(1)
}

// updateBoundary publishes the cacheability horizon after a mutation.
func (sd *seriesData) updateBoundary() {
	switch {
	case len(sd.head) > 0:
		sd.meta.boundary.Store(sd.head[0].tn)
	case sd.total > 0 || sd.last.payload != nil:
		sd.meta.boundary.Store(sd.last.tn)
	}
}

// seriesView is what a range read needs of a series: its sealed blocks,
// the first block's retention drop count, its head, its overlap flag and
// its live point count. Sealed blocks are immutable apart from
// blocks[0].drop, which the view holds as a value, so a view with a copied
// head (Store.captureLocked) reads outside the store lock while appends go
// on.
type seriesView struct {
	blocks  []*sealedBlock
	drop0   int
	head    []headPoint
	overlap bool
	total   int
}

func (sd *seriesData) view() seriesView {
	v := seriesView{blocks: sd.blocks, head: sd.head, overlap: sd.overlap, total: sd.total}
	if len(sd.blocks) > 0 {
		v.drop0 = sd.blocks[0].drop
	}
	return v
}

// collectRange appends points in [f, t) across blocks and head, sorted.
func (v seriesView) collectRange(f, t int64, out *[]Point) {
	for i, b := range v.blocks {
		drop := 0
		if i == 0 {
			drop = v.drop0
		}
		if drop == b.count || b.endT < f || b.startT >= t {
			continue
		}
		b.appendRange(out, drop, f, t)
	}
	for i := range v.head {
		if hp := &v.head[i]; hp.tn >= f && hp.tn < t {
			*out = append(*out, hp.point())
		}
	}
	if v.overlap {
		sort.SliceStable(*out, func(i, j int) bool { return (*out)[i].Time.Before((*out)[j].Time) })
	}
}

// scanAgg accumulates numeric points in [f, t) from blocks and head — the
// fallback (and window-edge) path under aggRange. It marks the result
// rollupOnly=false only when it actually consumed points: an empty scan
// stays stable (retention only removes points; out-of-order additions bump
// gen anyway).
func (sd *seriesData) scanAgg(f, t int64) aggAcc {
	acc := aggAcc{rollupOnly: true}
	if f >= t {
		return acc
	}
	for _, b := range sd.blocks {
		if b.live() == 0 || b.endT < f || b.startT >= t {
			continue
		}
		b.scanAgg(f, t, &acc)
	}
	for i := range sd.head {
		if hp := &sd.head[i]; hp.numeric && hp.tn >= f && hp.tn < t {
			acc.addPoint(hp.val)
		}
	}
	if acc.count > 0 {
		acc.rollupOnly = false
	}
	return acc
}

// aggRange computes the aggregate over [f, t) using the coarsest rollup
// ring that covers each span, recursing to finer rings (and ultimately the
// point scan) for unaligned edges and uncovered history. Cost is
// O(windows) + O(edge points).
func (sd *seriesData) aggRange(f, t int64, level int) aggAcc {
	if f >= t {
		return aggAcc{rollupOnly: true}
	}
	if level >= len(rollupSpecs) {
		return sd.scanAgg(f, t)
	}
	w := rollupSpecs[level].win
	i0, i1 := ceilDiv(f, w), floorDiv(t, w)
	r := &sd.rollups.rings[level]
	if i1 <= i0 || !r.covered(i0) {
		return sd.aggRange(f, t, level+1)
	}
	acc := aggAcc{rollupOnly: true}
	r.accumulate(i0, i1, &acc)
	acc.merge(sd.aggRange(f, i0*w, level+1))
	acc.merge(sd.aggRange(i1*w, t, level+1))
	return acc
}
