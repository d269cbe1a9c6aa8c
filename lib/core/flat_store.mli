(** Flat baseline bookkeeping backend — the "naive design" the paper's
    hybrid structure is measured against (Fig. 10).

    A single growable vector of tracked locations, scanned linearly by
    every store, flush and fence: no CLF-interval metadata, no spill
    tree, no bounding box. Bookkeeping semantics match {!Space}'s
    array-style rules (full cover supersedes; partial overlap unflushes;
    CLF splits partially covered locations), so the detector produces
    the same findings — just slower on large working sets. *)

type t

val create : ?metrics:Obs.Metrics.t -> unit -> t
(** [metrics] (default disabled) receives [flat_scans_total] and the
    [flat_live_peak] gauge. *)

val pending_count : t -> int
(** Tracked locations. *)

module Store : Store_intf.LOCATION_STORE with type t = t

val backend : ?metrics:Obs.Metrics.t -> unit -> Store_intf.backend
