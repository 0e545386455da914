// Package cpuid is the process's one probe of the CPU features its
// assembly kernels need. It has content only on amd64, and only the
// amd64 dispatch files of other packages import it; every other
// architecture runs the portable Go loops and never asks.
package cpuid
