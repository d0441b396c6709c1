//go:build race

package cache

// raceEnabled reports a -race build, under which sync.Pool drops a share
// of the items put back, so pooled allocation figures do not apply.
const raceEnabled = true
