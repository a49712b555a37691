// The socket-process substrate: the same IProcess protocol
// objects, each running in its OWN OS PROCESS, speaking the length-prefixed
// wire format (substrate/wire.h) over localhost Unix-domain or TCP sockets
// to a coordinator that implements the simulator's deterministic round
// barrier across a process boundary.
//
// Topology per run: the coordinator keeps the real Simulator + the
// unmodified FaultSpec/adversary/verifier stack; its process objects are
// thin socket proxies.  Each worker process builds only its own process
// object from the registry (make_process: deterministic construction).  One round = the coordinator ships each stepped
// worker its mail (one kDeliver frame per message, the frame bytes built
// once per broadcast) plus a kStep, then pumps replies under the watchdog
// deadline.  Under the deterministic schedule the commit order is
// ascending id, so every metric and adversary decision is byte-identical
// to the simulator -- which is what lets the differential family use the
// sim as a metric-for-metric oracle across a real process boundary.
//
// Crashes are real: a send-commit or round-barrier kill is kill(SIGKILL);
// a mid-broadcast kill asks the worker (kKill) to flush the first N bytes
// of a framed record and then SIGKILL itself, so the coordinator's reader
// exercises genuine partial-write recovery.  Supervision is process-grade:
// connect/accept/read deadlines with bounded retry+backoff, waitpid
// reaping, EPIPE/ECONNRESET from a model-dead worker mapped to
// crash-observations (a model-alive worker dying is a structured abort,
// never a harness crash), and hangs degraded into aborted/aborted_reason/
// abort_detail rows so no scenario can wedge CTest.  Unlike threads,
// processes can always be reaped -- the socket backend never leaks a run.
#pragma once

#include <memory>

#include "core/runner.h"

namespace dowork::substrate {

// run_do_all's kSocket body (core/runner.h): the protocol roster runs
// across real OS processes, one per protocol process, supervised as above.
// opts.live.transport picks UDS (default) or TCP.  A setup failure (spawn,
// accept, hello) comes back as aborted metrics, like a mid-run abort.
// Fills stats.threads (the worker count); processes are always reaped, so
// stats.leaked stays false.
RunMetrics run_socket(const ProtocolInfo& info, const DoAllConfig& cfg,
                      std::unique_ptr<FaultInjector> faults, const RunOptions& opts,
                      RunStats& stats);

// Worker re-entry hook.  Workers are spawned as `/proc/self/exe
// --dowork-socket-worker ...` (fork + exec -- a bare fork from the
// multi-threaded scenario runner could inherit a held malloc lock), so
// every binary that can host a socket run calls this FIRST in main():
// returns -1 when argv is not a worker invocation, else the worker's exit
// code (0 clean, 2 bad args, 3 connect failure, 4 protocol error) for the
// caller to return immediately.
int maybe_socket_worker(int argc, char** argv);

}  // namespace dowork::substrate
