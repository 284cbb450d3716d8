//go:build go1.23

package sim

import "iter"

// pull starts body as a coroutine. next runs it until its next yield
// (or its end) on a direct, scheduler-free switch; stop makes a pending
// yield return false, or discards a body that never started.
//
// Both go.mod files say go 1.22 and bench/ refuses a root module that
// says more, so the one use of package iter sits behind this tag until
// the directives move to 1.23.
func pull(body func(yield func(struct{}) bool)) (next func() (struct{}, bool), stop func()) {
	return iter.Pull(iter.Seq[struct{}](body))
}
