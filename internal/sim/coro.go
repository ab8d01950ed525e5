//go:build go1.23

// iter.Pull needs go1.23, but go.mod stays at go 1.21: the benchmark
// module (perfbench) requires this one and declares go 1.21, and raising
// only this module's line makes the benchmark's build fail with "go:
// updates to go.mod needed".  The build constraint above raises this
// one file's language version to go1.23, so go vet accepts the call
// below; a toolchain older than go1.23 cannot build this package.  The
// two go lines move to 1.23 together, and the constraint goes then.

package sim

import "iter"

// coroutine returns a function that runs body as a coroutine: the first
// call starts it, each later call continues it from the yield where it
// stopped, and each call returns when body yields or ends.  A panic or
// runtime.Goexit that ends body passes on to the caller.
func coroutine(body func(yield func(struct{}) bool)) (resume func() (struct{}, bool)) {
	resume, _ = iter.Pull(body)
	return resume
}
