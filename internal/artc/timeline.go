package artc

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Timeline renders the replay as ASCII art in the style of Figure 9: one
// row per traced thread, '#' where the thread was inside a system call
// and '.' where it was waiting (for dependencies or I/O slots), sampled
// into width columns across the replay's elapsed time.
func (r *Report) Timeline(b *Benchmark, width int) string {
	if width < 10 {
		width = 10
	}
	if r.Elapsed <= 0 || len(b.Trace.Records) != r.Actions {
		return ""
	}
	byThread := make(map[int][]int)
	var tids []int
	for i := range b.Trace.Records {
		tid := int(b.Trace.Records[i].TID)
		if _, ok := byThread[tid]; !ok {
			tids = append(tids, tid)
		}
		byThread[tid] = append(byThread[tid], i)
	}
	sort.Ints(tids)
	colDur := r.Elapsed / time.Duration(width)
	if colDur <= 0 {
		colDur = 1
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "replay timeline (%v across %d cols, '#'=in syscall)\n", r.Elapsed, width)
	for _, tid := range tids {
		row := make([]byte, width)
		for i := range row {
			row[i] = '.'
		}
		for _, idx := range byThread[tid] {
			from := int(r.IssueAt[idx] / colDur)
			to := int(r.DoneAt[idx] / colDur)
			if from >= width {
				from = width - 1
			}
			if to >= width {
				to = width - 1
			}
			for c := from; c <= to; c++ {
				row[c] = '#'
			}
		}
		fmt.Fprintf(&sb, "T%-4d %s\n", tid, row)
	}
	return sb.String()
}
