(** Parallel batch execution of independent simulated runs.

    Every reproduction artifact (the tables, the robustness matrix, the
    stress batteries, the complexity series, the workload comparison) is
    the aggregation of many {e independent} executions: each
    {!Engine.Make} run owns all of its mutable state — event queue,
    trace, RNG — so a batch of runs is embarrassingly parallel. [run]
    fans the work out over OCaml 5 [Domain] workers and returns the
    results {b in input order}, so batched artifacts are byte-identical
    to what the sequential path produces.

    The worker count defaults to {!default_jobs} (and is capped at the
    batch size); pass [~jobs:1] to force the sequential path — the
    escape hatch micro-benchmarks use so that they measure single-run
    cost, not scheduling.

    [run] refuses to nest: invoked from inside one of its own worker
    domains (a parallel consumer built from parallel pieces) it runs
    sequentially instead of spawning [jobs^2] domains — the outer
    fan-out already owns the cores. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()], clamped against the
    [ACTABLE_JOBS] environment variable when it is set to a positive
    integer: the parallelism used when [?jobs] is omitted. The override
    only caps the default — an explicit [~jobs] argument is passed
    through untouched. Unparsable or non-positive values of
    [ACTABLE_JOBS] are ignored. *)

val run : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [run ?jobs f items] applies [f] to every item, fanning the
    applications out over [min jobs (length items)] domains, and returns
    the results in input order. [f] must not share mutable state across
    items (engine runs never do). If any application raises, the shared
    cursor is poisoned so workers stop claiming further items (in-flight
    applications still finish), and the exception of the {e earliest}
    item that failed is re-raised with its original backtrace — the same
    exception the sequential path would surface first, because items are
    claimed in index order. Equivalent to [List.map f items] when
    [jobs <= 1], when the list has fewer than two items, or when called
    from inside a worker domain (no nested spawning). *)

