package machine

// LinkCount returns how many decode-cache entries hold a successor link.
// Only Run's straight-line fast path creates links, so a nonzero count
// shows the fast path ran.
func LinkCount(m *Machine) int {
	n := 0
	for _, e := range m.icache {
		if e.ci != nil && e.ci.succ != nil {
			n++
		}
	}
	return n
}
