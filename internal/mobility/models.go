package mobility

import (
	"fmt"
	"math"

	"mobilegossip/internal/ckpt"
	"mobilegossip/internal/prand"
)

// Model is a motion law over n points in the unit square. Init places the
// points and resets all per-node state; Step advances one motion epoch in
// place. All randomness flows from the rng the schedule owns, and both
// methods are called in a fixed order, so a (model, seed) pair replays to
// identical trajectories — the determinism the sweep runner depends on.
//
// Layout lays out the model's mutable per-node state (destinations,
// velocities, leg counters, …) so a Schedule can be resumed mid-trajectory
// without replaying every epoch from the seed; it is called only after Init
// has sized the state arrays, which a read fills in place.
//
// Mirror copies the state Step moves into dst — nil, or a model an earlier
// Mirror of this one returned — and returns it; the per-node arrays Init
// fixed for the whole trajectory are shared, not copied. A Schedule keeps
// the spare slot it stages the next epoch in this way.
type Model interface {
	Name() string
	Init(n int, rng *prand.RNG, x, y []float64)
	Step(epoch int, rng *prand.RNG, x, y []float64)
	Mirror(dst Model) Model
	Layout(c ckpt.Fields) error
}

// ---------------------------------------------------------------------------
// Random waypoint

// waypoint is the classic random-waypoint model: each node walks toward a
// uniformly chosen destination at its private speed, dwells there for a few
// epochs, then picks the next destination.
type waypoint struct {
	speed float64 // base per-epoch step
	pause int     // dwell epochs at each waypoint

	tx, ty []float64 // current destinations
	vel    []float64 // per-node speed, heterogeneous in [0.5, 1.5)·speed
	wait   []int     // remaining dwell epochs
}

// Waypoint returns the random-waypoint model: per-epoch step ≈ speed
// (per-node heterogeneous in [0.5, 1.5)·speed), dwelling pause epochs at
// every destination. speed = 0 freezes the crowd.
func Waypoint(speed float64, pause int) Model {
	if pause < 0 {
		pause = 0
	}
	return &waypoint{speed: speed, pause: pause}
}

func (w *waypoint) Name() string { return fmt.Sprintf("waypoint(v=%g)", w.speed) }

func (w *waypoint) Init(n int, rng *prand.RNG, x, y []float64) {
	w.tx = resized(w.tx, n)
	w.ty = resized(w.ty, n)
	w.vel = resized(w.vel, n)
	w.wait = resized(w.wait, n)
	for i := 0; i < n; i++ {
		x[i], y[i] = rng.Float64(), rng.Float64()
		w.tx[i], w.ty[i] = rng.Float64(), rng.Float64()
		w.vel[i] = w.speed * (0.5 + rng.Float64())
		w.wait[i] = 0
	}
}

// Layout implements Model.
func (w *waypoint) Layout(c ckpt.Fields) error {
	c.Section("model.waypoint")
	c.F64sInto(w.tx)
	c.F64sInto(w.ty)
	c.F64sInto(w.vel)
	c.IntsInto(w.wait)
	return c.Err()
}

// Mirror implements Model: vel is fixed at Init.
func (w *waypoint) Mirror(dst Model) Model {
	d, _ := dst.(*waypoint)
	if d == nil {
		d = &waypoint{speed: w.speed, pause: w.pause}
	}
	d.tx = copied(d.tx, w.tx)
	d.ty = copied(d.ty, w.ty)
	d.wait = copied(d.wait, w.wait)
	d.vel = w.vel
	return d
}

func (w *waypoint) Step(_ int, rng *prand.RNG, x, y []float64) {
	for i := range x {
		if w.wait[i] > 0 {
			w.wait[i]--
			continue
		}
		dx, dy := w.tx[i]-x[i], w.ty[i]-y[i]
		d := math.Sqrt(dx*dx + dy*dy)
		if d <= w.vel[i] || d == 0 {
			x[i], y[i] = w.tx[i], w.ty[i]
			w.tx[i], w.ty[i] = rng.Float64(), rng.Float64()
			w.wait[i] = w.pause
			continue
		}
		x[i] += dx / d * w.vel[i]
		y[i] += dy / d * w.vel[i]
	}
}

// ---------------------------------------------------------------------------
// Lévy flight

// levy is a Lévy walk: leg lengths are Pareto(α)-distributed (heavy tail —
// many short hops, occasional long excursions, the pattern measured in
// human mobility traces), walked at constant per-epoch speed and reflected
// at the square's walls.
type levy struct {
	speed float64
	alpha float64 // tail exponent, typically in (1, 2]

	dx, dy []float64 // per-epoch velocity of the current leg
	left   []int     // epochs remaining on the current leg
}

// Levy returns the Lévy-flight model with per-epoch speed and tail exponent
// alpha (defaulted to 1.6 when ≤ 0, the human-trace regime).
func Levy(speed, alpha float64) Model {
	if alpha <= 0 {
		alpha = 1.6
	}
	return &levy{speed: speed, alpha: alpha}
}

func (l *levy) Name() string { return fmt.Sprintf("levy(v=%g,α=%g)", l.speed, l.alpha) }

const levyMaxLeg = 0.5 // cap excursions at half the square

func (l *levy) Init(n int, rng *prand.RNG, x, y []float64) {
	l.dx = resized(l.dx, n)
	l.dy = resized(l.dy, n)
	l.left = resized(l.left, n)
	for i := 0; i < n; i++ {
		x[i], y[i] = rng.Float64(), rng.Float64()
		l.left[i] = 0
	}
}

// Layout implements Model.
func (l *levy) Layout(c ckpt.Fields) error {
	c.Section("model.levy")
	c.F64sInto(l.dx)
	c.F64sInto(l.dy)
	c.IntsInto(l.left)
	return c.Err()
}

// Mirror implements Model.
func (l *levy) Mirror(dst Model) Model {
	d, _ := dst.(*levy)
	if d == nil {
		d = &levy{speed: l.speed, alpha: l.alpha}
	}
	d.dx = copied(d.dx, l.dx)
	d.dy = copied(d.dy, l.dy)
	d.left = copied(d.left, l.left)
	return d
}

func (l *levy) Step(_ int, rng *prand.RNG, x, y []float64) {
	for i := range x {
		if l.left[i] <= 0 {
			// Draw a new leg: length ~ Pareto(α) scaled to the speed,
			// direction uniform.
			u := rng.Float64()
			if u < 1e-12 {
				u = 1e-12
			}
			length := l.speed * math.Pow(u, -1/l.alpha)
			if length > levyMaxLeg {
				length = levyMaxLeg
			}
			theta := 2 * math.Pi * rng.Float64()
			steps := 1
			if l.speed > 0 {
				steps = int(length/l.speed) + 1
			}
			l.left[i] = steps
			l.dx[i] = math.Cos(theta) * length / float64(steps)
			l.dy[i] = math.Sin(theta) * length / float64(steps)
		}
		l.left[i]--
		x[i] = reflect(x[i] + l.dx[i])
		y[i] = reflect(y[i] + l.dy[i])
	}
}

// reflect bounces a coordinate off the square's walls into [0, 1).
func reflect(v float64) float64 {
	for v < 0 || v >= 1 {
		if v < 0 {
			v = -v
		} else {
			v = 2 - v - 1e-15 // stay strictly below 1
		}
	}
	return v
}

// ---------------------------------------------------------------------------
// Group gathering

// group models a crowd gathering around moving attractors (stages, exits,
// speakers): each node belongs to one of g groups whose center performs a
// slow random-waypoint walk; members mix an attraction pull toward a
// personal anchor near their center with a jitter walk. attract = 0 is a
// pure jitter crowd; attract near 1 packs each group onto its anchor disk —
// dense clusters joined by sparse (repaired) bridges, the low-α regime.
//
// Crowds have density limits (people occupy space), so members anchor to
// persistent offsets inside a disk sized to cap the gathered density at
// groupDensityCap× the uniform density regardless of n — without it a
// large gathered cluster's unit-disk edge count grows quadratically in the
// cluster size, which is neither physical nor simulable at n = 10⁶.
type group struct {
	groups  int
	attract float64
	speed   float64

	cx, cy   []float64 // centers
	ctx, cty []float64 // center destinations
	ox, oy   []float64 // per-node anchor offsets within the comfort disk
	member   []int32
}

// groupDensityCap bounds a gathered cluster's density at this multiple of
// the uniform crowd density (≈ the cap on the cluster's mean degree as a
// multiple of the roaming degree).
const groupDensityCap = 5.0

// Group returns the gathering model with g attractor points and attraction
// strength attract ∈ [0, 1].
func Group(g int, attract, speed float64) Model {
	if g < 1 {
		g = 1
	}
	if attract < 0 {
		attract = 0
	}
	if attract > 1 {
		attract = 1
	}
	return &group{groups: g, attract: attract, speed: speed}
}

func (g *group) Name() string {
	return fmt.Sprintf("group(g=%d,a=%g,v=%g)", g.groups, g.attract, g.speed)
}

func (g *group) Init(n int, rng *prand.RNG, x, y []float64) {
	g.cx = resized(g.cx, g.groups)
	g.cy = resized(g.cy, g.groups)
	g.ctx = resized(g.ctx, g.groups)
	g.cty = resized(g.cty, g.groups)
	g.ox = resized(g.ox, n)
	g.oy = resized(g.oy, n)
	g.member = resized(g.member, n)
	for j := 0; j < g.groups; j++ {
		g.cx[j], g.cy[j] = rng.Float64(), rng.Float64()
		g.ctx[j], g.cty[j] = rng.Float64(), rng.Float64()
	}
	// Comfort-disk radius: a fully gathered group of n/groups members in a
	// disk of this radius sits at groupDensityCap× the uniform density —
	// π·spread²·(cap·n) = n/groups, independent of n.
	spread := math.Sqrt(1 / (math.Pi * groupDensityCap * float64(g.groups)))
	for i := 0; i < n; i++ {
		x[i], y[i] = rng.Float64(), rng.Float64()
		g.member[i] = int32(i % g.groups)
		// Uniform offset in the comfort disk (rejection-free: √u radius).
		rad := spread * math.Sqrt(rng.Float64())
		theta := 2 * math.Pi * rng.Float64()
		g.ox[i] = math.Cos(theta) * rad
		g.oy[i] = math.Sin(theta) * rad
	}
}

// Layout implements Model.
func (g *group) Layout(c ckpt.Fields) error {
	c.Section("model.group")
	for _, s := range [][]float64{g.cx, g.cy, g.ctx, g.cty, g.ox, g.oy} {
		c.F64sInto(s)
	}
	c.Int32sInto(g.member)
	return c.Err()
}

// Mirror implements Model: the members' anchor offsets and groups are
// fixed at Init; only the centers move.
func (g *group) Mirror(dst Model) Model {
	d, _ := dst.(*group)
	if d == nil {
		d = &group{groups: g.groups, attract: g.attract, speed: g.speed}
	}
	d.cx = copied(d.cx, g.cx)
	d.cy = copied(d.cy, g.cy)
	d.ctx = copied(d.ctx, g.ctx)
	d.cty = copied(d.cty, g.cty)
	d.ox, d.oy, d.member = g.ox, g.oy, g.member
	return d
}

func (g *group) Step(_ int, rng *prand.RNG, x, y []float64) {
	// Centers drift at half speed toward their own waypoints.
	cs := g.speed / 2
	for j := 0; j < g.groups; j++ {
		dx, dy := g.ctx[j]-g.cx[j], g.cty[j]-g.cy[j]
		d := math.Sqrt(dx*dx + dy*dy)
		if d <= cs || d == 0 {
			g.cx[j], g.cy[j] = g.ctx[j], g.cty[j]
			g.ctx[j], g.cty[j] = rng.Float64(), rng.Float64()
			continue
		}
		g.cx[j] += dx / d * cs
		g.cy[j] += dy / d * cs
	}
	for i := range x {
		m := g.member[i]
		// Attraction pull toward the personal anchor (center + offset),
		// capped at attract·speed per epoch.
		tx := clamp01(g.cx[m] + g.ox[i])
		ty := clamp01(g.cy[m] + g.oy[i])
		dx, dy := tx-x[i], ty-y[i]
		d := math.Sqrt(dx*dx + dy*dy)
		pull := g.attract * g.speed
		if d > pull && d > 0 {
			dx, dy = dx/d*pull, dy/d*pull
		}
		// Jitter fills the rest of the motion budget.
		theta := 2 * math.Pi * rng.Float64()
		jit := (1 - g.attract) * g.speed
		x[i] = reflect(x[i] + dx + math.Cos(theta)*jit)
		y[i] = reflect(y[i] + dy + math.Sin(theta)*jit)
	}
}

// ---------------------------------------------------------------------------
// Commuter schedules

// commuter models daily-rhythm motion: every node owns a home (uniform) and
// a workplace (clustered around a few hotspots), and walks between them on
// a shared period — the first half of each period targets home, the second
// half work. Phase flips produce synchronized churn bursts; mid-phase the
// crowd is nearly static, so the effective stability swings within one
// period.
type commuter struct {
	speed  float64
	period int

	hx, hy []float64
	wx, wy []float64
	vel    []float64
}

const commuterHotspots = 3

// Commuter returns the commuter-schedule model with the given per-epoch
// speed and commute period in epochs (defaulted to 64 when < 2).
func Commuter(speed float64, period int) Model {
	if period < 2 {
		period = 64
	}
	return &commuter{speed: speed, period: period}
}

func (c *commuter) Name() string {
	return fmt.Sprintf("commuter(v=%g,T=%d)", c.speed, c.period)
}

func (c *commuter) Init(n int, rng *prand.RNG, x, y []float64) {
	c.hx = resized(c.hx, n)
	c.hy = resized(c.hy, n)
	c.wx = resized(c.wx, n)
	c.wy = resized(c.wy, n)
	c.vel = resized(c.vel, n)
	var sx, sy [commuterHotspots]float64
	for j := range sx {
		sx[j], sy[j] = rng.Float64(), rng.Float64()
	}
	// Workplace scatter around each hotspot, sized (like group's comfort
	// disk) so a fully arrived hotspot sits at groupDensityCap× the uniform
	// density instead of collapsing to a point.
	spread := math.Sqrt(1 / (math.Pi * groupDensityCap * commuterHotspots))
	for i := 0; i < n; i++ {
		c.hx[i], c.hy[i] = rng.Float64(), rng.Float64()
		j := i % commuterHotspots
		rad := spread * math.Sqrt(rng.Float64())
		theta := 2 * math.Pi * rng.Float64()
		c.wx[i] = clamp01(sx[j] + math.Cos(theta)*rad)
		c.wy[i] = clamp01(sy[j] + math.Sin(theta)*rad)
		c.vel[i] = c.speed * (0.5 + rng.Float64())
		// The day starts at home.
		x[i], y[i] = c.hx[i], c.hy[i]
	}
}

// Layout implements Model. The commuter's per-node state is fixed at Init,
// but laying it out keeps every model uniform and robust against future
// mutation.
func (c *commuter) Layout(f ckpt.Fields) error {
	f.Section("model.commuter")
	for _, s := range [][]float64{c.hx, c.hy, c.wx, c.wy, c.vel} {
		f.F64sInto(s)
	}
	return f.Err()
}

// Mirror implements Model: homes, workplaces and speeds are fixed at Init,
// so a mirror shares them all.
func (c *commuter) Mirror(dst Model) Model {
	d, _ := dst.(*commuter)
	if d == nil {
		d = &commuter{speed: c.speed, period: c.period}
	}
	d.hx, d.hy, d.wx, d.wy, d.vel = c.hx, c.hy, c.wx, c.wy, c.vel
	return d
}

func (c *commuter) Step(epoch int, _ *prand.RNG, x, y []float64) {
	atWork := epoch%c.period >= c.period/2
	for i := range x {
		tx, ty := c.hx[i], c.hy[i]
		if atWork {
			tx, ty = c.wx[i], c.wy[i]
		}
		dx, dy := tx-x[i], ty-y[i]
		d := math.Sqrt(dx*dx + dy*dy)
		if d <= c.vel[i] {
			x[i], y[i] = tx, ty // dwell at the target until the phase flips
			continue
		}
		x[i] += dx / d * c.vel[i]
		y[i] += dy / d * c.vel[i]
	}
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v >= 1 {
		return 1 - 1e-15
	}
	return v
}

// copied returns dst holding a copy of src, reusing dst's backing array
// when it is large enough.
func copied[T any](dst, src []T) []T {
	dst = resized(dst, len(src))
	copy(dst, src)
	return dst
}

// resized returns s with length n, reusing the backing array when possible.
func resized[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}
