package trace

import (
	"fmt"
	"sort"
	"strings"

	"pdpasim/internal/sim"
)

// RenderOptions controls ASCII timeline rendering.
type RenderOptions struct {
	// Width is the number of time buckets (columns). Defaults to 100.
	Width int
	// From/To bound the rendered window. A zero To means the recording end.
	From, To sim.Time
	// Label maps a job id to a single rune. Nil uses 'A' + job mod 26.
	Label func(job int) rune
}

// Render draws the recorded per-CPU execution history as an ASCII timeline:
// one row per CPU, one column per time bucket, the character identifying the
// application that dominated the bucket ('.' for idle). This is the textual
// analogue of the Paraver views in Fig. 5: a stable space-sharing schedule
// shows long horizontal runs of one letter, while a time-shared schedule
// looks speckled.
func (r *Recorder) Render(opt RenderOptions) string {
	width := opt.Width
	if width <= 0 {
		width = 100
	}
	from := opt.From
	to := opt.To
	if to == 0 {
		to = r.end
	}
	if to <= from {
		return ""
	}
	label := opt.Label
	if label == nil {
		label = func(job int) rune { return rune('A' + job%26) }
	}

	span := to - from
	// dominant[cpu][bucket] accumulates busy time per job; track only the
	// running maximum to stay O(cpus × width).
	type cell struct {
		job  int
		busy sim.Time
	}
	best := make([][]cell, r.ncpu)
	acc := make([]map[int]sim.Time, r.ncpu)
	for i := range best {
		best[i] = make([]cell, width)
		for j := range best[i] {
			best[i][j] = cell{job: NoJob}
		}
		acc[i] = make(map[int]sim.Time)
	}
	bucketOf := func(t sim.Time) int {
		b := int(int64(t-from) * int64(width) / int64(span))
		if b < 0 {
			b = 0
		}
		if b >= width {
			b = width - 1
		}
		return b
	}
	bucketBounds := func(b int) (sim.Time, sim.Time) {
		lo := from + sim.Time(int64(span)*int64(b)/int64(width))
		hi := from + sim.Time(int64(span)*int64(b+1)/int64(width))
		return lo, hi
	}
	for _, burst := range r.bursts {
		if burst.End <= from || burst.Start >= to {
			continue
		}
		s, e := burst.Start, burst.End
		if s < from {
			s = from
		}
		if e > to {
			e = to
		}
		for b := bucketOf(s); b <= bucketOf(e-1); b++ {
			lo, hi := bucketBounds(b)
			ov := overlap(s, e, lo, hi)
			if ov <= 0 {
				continue
			}
			acc[burst.CPU][burst.Job] += ov
			if acc[burst.CPU][burst.Job] > best[burst.CPU][b].busy {
				best[burst.CPU][b] = cell{job: burst.Job, busy: acc[burst.CPU][burst.Job]}
			}
			// Reset accumulator per bucket by subtracting after use.
			acc[burst.CPU][burst.Job] = 0
		}
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "time %s .. %s, %d cpus, one column = %s\n",
		from, to, r.ncpu, (span / sim.Time(width)))
	for cpu := 0; cpu < r.ncpu; cpu++ {
		fmt.Fprintf(&sb, "cpu%02d |", cpu)
		for b := 0; b < width; b++ {
			c := best[cpu][b]
			if c.job == NoJob {
				sb.WriteByte('.')
			} else {
				sb.WriteRune(label(c.job))
			}
		}
		sb.WriteString("|\n")
	}
	return sb.String()
}

func overlap(s1, e1, s2, e2 sim.Time) sim.Time {
	s := s1
	if s2 > s {
		s = s2
	}
	e := e1
	if e2 < e {
		e = e2
	}
	if e <= s {
		return 0
	}
	return e - s
}

// JobsSeen returns the sorted ids of all jobs that appear in the burst
// history.
func (r *Recorder) JobsSeen() []int {
	set := map[int]bool{}
	for _, b := range r.bursts {
		set[b.Job] = true
	}
	out := make([]int, 0, len(set))
	for j := range set {
		out = append(out, j)
	}
	sort.Ints(out)
	return out
}
