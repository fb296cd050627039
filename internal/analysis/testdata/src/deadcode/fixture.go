// Package deadcode is the deadcode fixture. The test loads it under an
// internal/ import path beside a stand-in for the module's root package,
// so the analyzer sees a whole-module load.
package deadcode

// The blank declarations below are the package's only outside uses.
var (
	_ = Called()
	_ = Built{}
	_ = Map(1)
	_ = V
	_ = helper()
)

func Called() int { return 1 }

func Unused() {} // want `deadcode\.Unused has no reference from non-test code`

// A function that only calls itself is still dead.
func Recursive(n int) int { // want `deadcode\.Recursive has no reference`
	if n == 0 {
		return 0
	}
	return Recursive(n - 1)
}

type Built struct{}

// A type that only its own methods mention is dead.
type Self struct{} // want `deadcode\.Self has no reference`

func (s *Self) Clone() *Self { return &Self{} }

// A generic function counts through its instantiation.
func Map[T any](x T) T { return x }

var V, W = 1, 2 // want `deadcode\.W has no reference`

// Limit is used by unexported code, which counts.
const Limit = 3

func helper() int { return Limit }

func unexportedAndUnused() {}

//ioatlint:allow deadcode — the fixture's accepted suppression
func Kept() {}
