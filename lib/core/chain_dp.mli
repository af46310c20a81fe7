(** Algorithm 1 of the paper: the O(n²) dynamic program computing the
    optimal checkpoint placement for a linear chain (Proposition 3),
    and its one front door for large chains, a linear-transition SMAWK
    solver for the (generic) monotone-decision case.

    Three implementations of the same optimum are cross-checked in the
    test suite: a faithful transcription of the paper's memoized
    recursion (kept on the reference per-call [exp]/[expm1] evaluation,
    the correctness oracle), the bottom-up O(n²) sweep, and the blocked
    SMAWK solver. The bottom-up solvers evaluate transition costs
    through the chain's precomputed {!Segment_cost} kernel —
    multiplications only on the hot path — keep their DP tables in flat
    off-heap {!Dp_tables} structure-of-arrays storage (million-task
    tables never touch the GC), and run in O(n) space thanks to prefix
    sums of the task weights. See docs/KERNELS.md for the layout and
    the determinism contracts. *)

type solution = {
  expected_makespan : float;  (** Optimal expectation E(1, n). *)
  schedule : Schedule.t;  (** An optimal placement achieving it. *)
}

val solve : Chain_problem.t -> solution
(** Bottom-up dynamic program: the O(n²) reference sweep (O(1)
    kernel-backed transitions, leftmost argmin on ties). *)

val solve_memoized : Chain_problem.t -> solution
(** Faithful transcription of the paper's Algorithm 1 (recursive,
    memoized), on the reference segment-cost evaluation. Returns the
    same solution as {!solve} (to the kernel's 1e-9 relative
    tolerance). *)

val solve_smawk : Chain_problem.t -> solution
(** The front door for chains of any size. Linear-transition solver:
    SMAWK row minima over the inverse-Monge transition matrix, applied
    to blocks of 256 states processed right to left with a window that
    shrinks to the leftmost argmin of each finished block. O(n·log 256
    + Σ window spans) transition evaluations — linear in n on
    checkpoint instances, where optimal segment lengths grow like √n
    (the bench suite gates the measured [dp.smawk_transitions] growth).
    Work is counted by the [dp.smawk_states]/[dp.smawk_transitions]
    metrics (in addition to the shared [dp.*] ones). Allocates O(1)
    minor-heap words per solve, whatever n: the tables are off-heap and
    every SMAWK index set is a slice of one per-solve workspace.

    Agreement contract: identical transition expressions and a
    leftmost-on-ties fold make the result {e bit-for-bit} equal to
    {!solve} — expected makespan and schedule — whenever the
    {!Segment_cost.supports_monotone_dc} certificate holds (the test
    suite cross-checks this, including exact ties and sizes straddling
    block edges). When the certificate fails (or the kernel is in
    overflow-reference mode), the solver counts a [dp.smawk_fallbacks]
    and returns {!solve}'s answer, so the contract holds on every
    instance. *)

val dp_values : Chain_problem.t -> float array
(** [dp_values problem] is the table E of optimal expected times for
    the suffixes: element x is the optimal expectation for executing
    tasks x..n-1 (element n is 0). Exposed for tests and analysis;
    computed by {!solve}'s sweep. *)

val solve_with_budget : Chain_problem.t -> checkpoints:int -> solution
(** Optimal placement using {e exactly} [checkpoints] checkpoints
    (including the mandatory final one) — the storage-budget variant:
    coordinated checkpoints may be limited by stable-storage capacity
    or I/O reservations. O(n²·k) time. Raises [Invalid_argument] unless
    1 <= checkpoints <= n. *)

val budget_curve : Chain_problem.t -> (int * float) list
(** [(k, optimal expectation with exactly k checkpoints)] for
    k = 1 .. n; its minimum is {!solve}'s value. *)
