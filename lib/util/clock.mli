(** Wall-clock time for budgets and deadlines.

    [Sys.time] measures CPU time, which stands still while a process
    waits on I/O, sleeps between retries, or blocks in [select] — so it
    is the wrong clock for every budget in this repository (fuzz-campaign
    time budgets, serve-mode deadlines, retry backoff).  This module is
    the one shared wall-clock source: seconds since an arbitrary origin,
    guaranteed never to step backwards within a process even if the
    system clock is adjusted.

    Deterministic code paths (the simulator, the serve fuzzer) never
    call this module; they run on virtual clocks instead. *)

(** Monotonic wall-clock seconds.  Successive calls never decrease. *)
val monotonic_s : unit -> float

(** [earliest a b] is the earlier of two optional wakeup times ([None]
    means "no wakeup needed").  Event loops use it to fold per-source
    deadlines (pool wakeups, connection idle expiries) into one
    [select] timeout. *)
val earliest : float option -> float option -> float option
