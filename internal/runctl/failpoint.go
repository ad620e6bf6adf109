package runctl

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
)

// FailpointEnv names the environment variable that arms the test-only
// stall failpoint, as NAME@N (for example enum.stall@100000). It is read
// once per process; unset or empty leaves every failpoint unarmed.
const FailpointEnv = "BBC_FAILPOINT"

// EnumStall is the failpoint that parks an enumeration scan — a serial
// scan, one parallel partition, or a served fleet shard — once its Poller
// has counted N profiles this run, bulk credits included. The scan waits
// at its next context poll until its context ends, then stops as that
// context says (cancelled or deadline). Smoke tests use it to interrupt a
// scan at a fixed amount of work instead of at a wall-clock time that a
// faster engine can outrun. A Poller with a nil context never parks.
const EnumStall = "enum.stall"

// armedFailpoint parses FailpointEnv on first use.
var armedFailpoint = sync.OnceValues(func() (failpoint, error) {
	return parseFailpoint(os.Getenv(FailpointEnv))
})

// failpoint is one armed point: its name and work threshold.
type failpoint struct {
	name string
	at   uint64
}

// parseFailpoint reads NAME@N; the empty string arms nothing.
func parseFailpoint(v string) (failpoint, error) {
	if v == "" {
		return failpoint{}, nil
	}
	name, at, ok := strings.Cut(v, "@")
	n, err := strconv.ParseUint(at, 10, 64)
	if !ok || err != nil || n == 0 || name != EnumStall {
		return failpoint{}, fmt.Errorf("runctl: %s=%q: want %s@N with N > 0", FailpointEnv, v, EnumStall)
	}
	return failpoint{name: name, at: n}, nil
}

// Arm attaches the named failpoint to p when FailpointEnv arms it. An
// unarmed poller pays one comparison per poll tick. A malformed
// FailpointEnv is an error: a run that asked for a stall must not go on
// silently without one.
func (p *Poller) Arm(name string) error {
	fp, err := armedFailpoint()
	if err != nil {
		return err
	}
	if fp.name == name {
		p.stallAt = fp.at
	}
	return nil
}
