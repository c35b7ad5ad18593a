(** Seeded lint-violation fixtures.

    Three deliberately broken variants of shipped algorithms, registered
    with [mutant = true] so the default lint run skips them; including them
    (tests, CI's expected-failure step) must produce exactly their three
    violations — a remote busy-wait behind a local-spin claim, a CAS behind
    a reads/writes-only declaration, and a hidden remote scan behind an O(1)
    amortized claim. *)

val remote_spin_name : string
(** A dsm-fixed-style broadcast whose per-waiter flags were "accidentally"
    homed in the shared module; its Wait() claims local spinning but polls
    a remote cell.  Expected violation: [local-spin] on [wait]. *)

val cas_flag_name : string
(** cc-flag with Signal() "optimized" into a CAS while still declaring
    reads/writes only.  Expected violation: [primitive-class] on
    [signal]. *)

val amortized_scan_name : string
(** cc-flag whose Signal() hides a periodic scan of every waiter's
    heartbeat cell — cells the waiters re-dirty on every poll — while
    still claiming the 1-RMR-per-Signal, zero-refill headline.  Expected
    violation: [amortized] on [signal]. *)

val register : n:int -> unit
