// The cached process-wide environment knob of the completion-program
// facility.
//
// Same contract as ResolveIoMode / FaultPlan::FromEnv (the PR 7 pattern):
// the variable is read from the environment exactly once per process via a
// magic static, so constructing thousands of kernels (shard worlds, the
// open-loop engine) never re-enters getenv on a hot path and every world in
// a process sees one consistent setting.
#ifndef SLEDS_SRC_PROGS_PROGS_ENV_H_
#define SLEDS_SRC_PROGS_PROGS_ENV_H_

namespace sled {

// $SLEDS_PROGS: nonzero = tools that have a completion-program variant
// (shell wc/grep/chain, fimhisto) default to using it. The explicit -p flag
// turns a single invocation on regardless.
bool ProgsEnabledFromEnv();

}  // namespace sled

#endif  // SLEDS_SRC_PROGS_PROGS_ENV_H_
