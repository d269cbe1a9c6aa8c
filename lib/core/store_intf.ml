(** The bookkeeping-backend contract: [LOCATION_STORE].

    The paper's central data-structure claim (§4, Figs. 10–12) is that
    the hybrid array+AVL {!Space} beats both a pure tree and naive
    designs because it matches PM program patterns. To benchmark that
    claim honestly — and to let the detector run against alternative
    bookkeeping engines without touching rule code — the detector is
    parameterized over this signature instead of calling [Space]
    directly. {!Space} is the reference implementation; {!Flat_store}
    is the flat-hashtable baseline used for comparison.

    The result types live here (not in the implementations) so that
    every backend returns structurally identical observations and the
    rule layer cannot depend on implementation detail. *)

type store_result = {
  overlapped : bool;  (** some tracked location overlapped the store *)
  prior_seqs : int list;
      (** store seqs of the overlapped locations — sorted ascending,
          deduplicated, capped at {!max_prior_seqs}: the canonical
          causal history of a multiple-overwrites finding, regardless
          of backend or walk order. *)
}

type clf_result = {
  matched : int;  (** tracked locations the flush covered (fully or partly) *)
  newly_flushed : int;  (** covered locations that were not already flushed *)
  redundant : (int * int) list;  (** (addr, size) of already-flushed hits *)
  redundant_prov : (int * int) list;
      (** (store seq, prior CLF seq) per redundant hit, aligned with
          [redundant]; prior CLF seq is -1 when the earlier flush
          predates seq stamping. *)
}

let max_prior_seqs = Pmtrace.Shard_router.max_prior_seqs
(** Cap on prior-store seqs collected per store: causal chains need the
    earliest few overwritten stores, not an unbounded history under hot
    addresses. Shared by every backend {e and} by the sharded
    pipeline's cross-shard merge (hence defined there), so the cap is a
    property of the observation, not of one implementation. *)

let cap_prior_seqs (priors : int list) =
  let rec take n = function x :: rest when n > 0 -> x :: take (n - 1) rest | _ -> [] in
  take max_prior_seqs (List.sort_uniq compare priors)
(** Canonicalize a raw prior-seq collection: sorted ascending, deduped,
    capped at {!max_prior_seqs} — keeping the {e smallest} (earliest)
    seqs. Because the cap keeps a prefix of the sorted order, capping
    per partition and re-capping the union yields the same result as
    capping the union directly; the sharded merge relies on this. *)

(** What the detector requires of a bookkeeping backend. The semantics
    are those of §4.2–4.4 (see {!Space} for the reference behaviour):
    pure bookkeeping that reports the observations the rules need but
    emits no bugs itself. *)
module type LOCATION_STORE = sig
  type t

  val name : string
  (** Identifier used in stats and reports (e.g. ["hybrid"], ["flat"]). *)

  val process_store :
    t ->
    ?check_overlap:bool ->
    addr:int ->
    size:int ->
    epoch:bool ->
    seq:int ->
    tid:int ->
    strand:int ->
    unit ->
    store_result
  (** §4.2: track the store; tracked overlapping locations that were
      flushed but not fenced lose their flushed state. *)

  val process_clf : ?seq:int -> t -> lo:int -> hi:int -> clf_result
  (** §4.3: update flushing states; split partially covered locations. *)

  val process_fence : ?seq:int -> t -> unit
  (** §4.4: drop persisted locations; survivors keep (or gain) the seq
      of the first fence they crossed unpersisted. *)

  val has_pending_overlap : t -> lo:int -> hi:int -> bool
  (** Any tracked, still-unpersisted location overlapping the range? *)

  val exists_epoch_pending : t -> bool

  val iter_pending :
    t ->
    (addr:int -> size:int -> flushed:bool -> epoch:bool -> seq:int -> clf_seq:int -> fence_seq:int -> unit) ->
    unit

  (** {1 Statistics} *)

  val tree_size : t -> int
  (** Spill-structure size (0 for backends without one). *)

  val note_fence_sample : t -> unit
  (** Record the current spill size as one fence-interval sample
      (Fig. 11); a no-op for backends without the notion. *)

  val avg_tree_nodes_per_fence : t -> float

  val reorganizations : t -> int
end

type instance = Instance : (module LOCATION_STORE with type t = 'a) * 'a -> instance
(** A backend packed with one of its stores — what the detector holds
    per bookkeeping space. *)

type backend = unit -> instance
(** A backend factory: each call creates one fresh, independent store
    (the detector needs one per strand section under the strand
    model). *)

(** {1 Operations on packed instances} *)

let name (Instance ((module S), _)) = S.name

let process_store (Instance ((module S), s)) = S.process_store s

let process_clf ?seq (Instance ((module S), s)) = S.process_clf ?seq s

let process_fence ?seq (Instance ((module S), s)) = S.process_fence ?seq s

let has_pending_overlap (Instance ((module S), s)) = S.has_pending_overlap s

let exists_epoch_pending (Instance ((module S), s)) = S.exists_epoch_pending s

let iter_pending (Instance ((module S), s)) = S.iter_pending s

let tree_size (Instance ((module S), s)) = S.tree_size s

let note_fence_sample (Instance ((module S), s)) = S.note_fence_sample s

let avg_tree_nodes_per_fence (Instance ((module S), s)) = S.avg_tree_nodes_per_fence s

let reorganizations (Instance ((module S), s)) = S.reorganizations s
