open Pmem

type mode = Hybrid | Array_only | Tree_only

(* Payload stored in the AVL spill tree for a (possibly split) location. *)
type payload = {
  mutable p_flushed : bool;
  p_epoch : bool;
  p_seq : int;
  p_tid : int;
  p_strand : int;
  mutable p_clf_seq : int;  (* CLF that flushed it, or -1 *)
  p_fence_seq : int;  (* first fence the location crossed unpersisted, or -1 *)
}

(* Per-slot flag bits, one byte per slot. *)
let valid_bit = 1

let flushed_bit = 2

let epoch_bit = 4

type t = {
  mode : mode;
  interval_metadata : bool;
  capacity : int;  (* logical spill bound: stores past it go to the tree *)
  merge_threshold : int;
  metrics : Obs.Metrics.t;
  (* The location array (§4.1) as parallel unboxed arrays — slot [i] is
     index [i] of each — so appending a slot allocates nothing (the
     {!Obs.Flightrec} layout). They start small and double on demand up
     to [capacity]: a space pays for the slots its fence intervals use,
     not for the bound. *)
  mutable addrs : int array;
  mutable sizes : int array;
  mutable seqs : int array;
  mutable tids : int array;
  mutable strands : int array;
  mutable clf_seqs : int array;  (* CLF that flushed the slot individually, or -1 *)
  mutable flags : Bytes.t;  (* valid / flushed / epoch bits *)
  mutable live : int;  (* number of appended slots in the current fence interval *)
  mutable first_meta : Clf_meta.t;
  mutable cur_meta : Clf_meta.t;
  tree : payload Rangetree.t;
  (* Tree nodes flushed by CLFs since the last fence: the fence removes
     exactly these instead of sweeping the whole tree, so a large spill
     tree of never-flushed locations costs fences nothing. *)
  mutable tree_flushed_nodes : (int * int * payload) list;
  mutable last_reorg_size : int;
  (* Bounding box over everything currently tracked (array + tree), as
     half-open [bound_lo, bound_hi); empty when bound_lo >= bound_hi.
     Conservative — invalidations do not shrink it — and recomputed from
     the tree at each fence. A store or query outside the box skips the
     interval walk and the tree probe entirely. *)
  mutable bound_lo : int;
  mutable bound_hi : int;
  (* Fig. 11 sampling *)
  mutable fence_samples : int;
  mutable tree_size_sum : int;
}

let initial_slots = 4

let create ?(array_capacity = 100_000) ?(merge_threshold = 500) ?(mode = Hybrid) ?(interval_metadata = true)
    ?(metrics = Obs.Metrics.disabled) () =
  let capacity = match mode with Tree_only -> 0 | Hybrid | Array_only -> array_capacity in
  (* Pre-declare the hit/spill pair so every snapshot shows both sides
     of the hybrid, zeros included. *)
  if Obs.Metrics.is_on metrics then begin
    Obs.Metrics.inc metrics ~by:0 "space_array_hits_total";
    Obs.Metrics.inc metrics ~by:0 "space_tree_spills_total";
    Obs.Metrics.inc metrics ~by:0 "space_bounds_skips_total"
  end;
  let meta = Clf_meta.make ~start_idx:0 in
  let n = min capacity initial_slots in
  {
    mode;
    interval_metadata;
    capacity;
    merge_threshold;
    metrics;
    addrs = Array.make n 0;
    sizes = Array.make n 0;
    seqs = Array.make n 0;
    tids = Array.make n 0;
    strands = Array.make n 0;
    clf_seqs = Array.make n 0;
    flags = Bytes.make n '\000';
    live = 0;
    first_meta = meta;
    cur_meta = meta;
    tree = Rangetree.create ();
    tree_flushed_nodes = [];
    last_reorg_size = 0;
    bound_lo = max_int;
    bound_hi = min_int;
    fence_samples = 0;
    tree_size_sum = 0;
  }

(* Double the slot arrays, capped at [capacity]; only the live prefix
   carries over. *)
let grow t =
  let n = min t.capacity (2 * Array.length t.addrs) in
  let extend a =
    let b = Array.make n 0 in
    Array.blit a 0 b 0 t.live;
    b
  in
  t.addrs <- extend t.addrs;
  t.sizes <- extend t.sizes;
  t.seqs <- extend t.seqs;
  t.tids <- extend t.tids;
  t.strands <- extend t.strands;
  t.clf_seqs <- extend t.clf_seqs;
  let flags = Bytes.make n '\000' in
  Bytes.blit t.flags 0 flags 0 t.live;
  t.flags <- flags

let has t i bit = Char.code (Bytes.get t.flags i) land bit <> 0

let set t i bit = Bytes.set t.flags i (Char.unsafe_chr (Char.code (Bytes.get t.flags i) lor bit))

let unset t i bit = Bytes.set t.flags i (Char.unsafe_chr (Char.code (Bytes.get t.flags i) land lnot bit))

(* [Addr.overlaps] / [Addr.covers] on bare ints, so the array and
   interval walks build no range per slot they visit. The [int]
   annotations matter: without them the comparisons are polymorphic,
   a C call per comparison on the hottest loops. *)
let overlaps (alo : int) ahi ~lo ~hi = alo < hi && lo < ahi && alo < ahi && lo < hi

let covers ~lo ~hi (alo : int) (ahi : int) = lo <= alo && ahi <= hi

(* The interval's address span can touch [lo, hi). *)
let meta_overlaps (m : Clf_meta.t) ~lo ~hi =
  (not (Clf_meta.is_empty m)) && overlaps m.Clf_meta.min_addr m.Clf_meta.max_addr ~lo ~hi

let bounds_add t ~lo ~hi =
  if lo < t.bound_lo then t.bound_lo <- lo;
  if hi > t.bound_hi then t.bound_hi <- hi

(* The range cannot touch anything tracked: nothing lives outside the
   bounding box. *)
let bounds_miss t ~lo ~hi = hi <= t.bound_lo || lo >= t.bound_hi

let bounds_reset_from_tree t =
  match Rangetree.bounds t.tree with
  | None ->
      t.bound_lo <- max_int;
      t.bound_hi <- min_int
  | Some (lo, hi) ->
      t.bound_lo <- lo;
      t.bound_hi <- hi

let iter_metas t f =
  let rec go m =
    f m;
    match m.Clf_meta.next with None -> () | Some n -> go n
  in
  go t.first_meta

(* Effective flushing state of a slot, accounting for the collective
   interval state (slots of an All_flushed interval are flushed even when
   their individual flag was never touched). *)
let slot_flushed t (m : Clf_meta.t) i = has t i flushed_bit || m.Clf_meta.state = Clf_meta.All_flushed

(* A spill-tree payload carrying slot [i]'s provenance. *)
let payload_of_slot t i ~clf_seq ~fence_seq =
  {
    p_flushed = false;
    p_epoch = has t i epoch_bit;
    p_seq = t.seqs.(i);
    p_tid = t.tids.(i);
    p_strand = t.strands.(i);
    p_clf_seq = clf_seq;
    p_fence_seq = fence_seq;
  }

let tree_insert_payload t ~lo ~hi (p : payload) =
  bounds_add t ~lo ~hi;
  Rangetree.insert t.tree ~lo ~hi p

(* Drop the pending-flush registration of a superseded tree node, so
   the registration list stays proportional to the interval's live
   flushed nodes even under hot addresses. Identity plus exact range
   keeps split pieces that share a payload distinct. *)
let purge_registration t ~lo ~hi (p : payload) =
  if t.tree_flushed_nodes <> [] then
    t.tree_flushed_nodes <-
      List.filter (fun (flo, fhi, fp) -> not (fp == p && flo = lo && fhi = hi)) t.tree_flushed_nodes

(* A store dirties its cache line again: any tracked overlapping
   location that was flushed (but not yet fenced) loses its flushed
   state, exactly as the hardware voids a CLWB that precedes a new
   store. Returns whether any tracked location overlapped — the
   observation the multiple-overwrites rule needs, collected here so the
   store path scans the bookkeeping space once. *)
let unflush_overlaps t ~need_overlap ~lo ~hi =
  if bounds_miss t ~lo ~hi then begin
    Obs.Metrics.inc t.metrics "space_bounds_skips_total";
    (false, [])
  end
  else begin
  let probe = Addr.range ~lo ~hi in
  let found = ref false in
  let priors = ref [] in
  let note_prior seq =
    found := true;
    if need_overlap then priors := seq :: !priors
  in
  let visit_meta (m : Clf_meta.t) =
    (* Every overlapping interval is scanned whatever its flush state:
       superseding fully-covered slots is observable (pending walks,
       later CLF match counts), and skipping it for all-unflushed
       intervals — the former Pattern 3 fast path — made that outcome
       depend on the flush state of unrelated slots sharing the
       interval: a cross-line effect that diverged from the tree and
       flat backends and broke shard parity. [need_overlap] now gates
       only the prior-seq observation. *)
    if meta_overlaps m ~lo ~hi then begin
      (* Demote a collectively-flushed interval before touching
         individual slots: the collective bit stands for every slot's
         state (and the collective CLF seq for every slot's flush
         provenance). *)
      if t.interval_metadata && m.Clf_meta.state = Clf_meta.All_flushed then begin
        for i = m.Clf_meta.start_idx to m.Clf_meta.end_idx do
          if has t i valid_bit then begin
            set t i flushed_bit;
            if t.clf_seqs.(i) < 0 then t.clf_seqs.(i) <- m.Clf_meta.clf_seq
          end
        done;
        m.Clf_meta.state <- Clf_meta.Partially_flushed
      end;
      for i = m.Clf_meta.start_idx to m.Clf_meta.end_idx do
        let a = t.addrs.(i) in
        let e = a + t.sizes.(i) in
        if has t i valid_bit && overlaps a e ~lo ~hi then begin
          note_prior t.seqs.(i);
          (* A fully covered slot is superseded outright (the new store
             re-tracks the address); partial overlaps merely lose their
             flushed state. *)
          if covers ~lo ~hi a e then begin
            unset t i valid_bit;
            m.Clf_meta.invalidated <- m.Clf_meta.invalidated + 1
          end
          else if has t i flushed_bit then begin
            unset t i flushed_bit;
            t.clf_seqs.(i) <- -1
          end
        end
      done
    end
  in
  iter_metas t visit_meta;
  (* Cheap emptiness probe before the allocating overlap pass. *)
  if Rangetree.find_first_overlap t.tree ~lo ~hi = None then (!found, !priors)
  else begin
  (* Tree nodes: a fully covered node is superseded outright (the new
     store re-tracks the address), preventing stale duplicates from
     piling up under hot addresses; a partially covered flushed node
     keeps only its non-overlapped parts flushed — marking the whole
     region unflushed would orphan bytes whose lines are no longer
     dirty. *)
  let visited =
    Rangetree.map_overlapping t.tree ~lo ~hi ~f:(fun r (p : payload) ->
        note_prior p.p_seq;
        if Addr.covers probe r then begin
          (* Superseded outright: its pending-flush registration (if
             any) points at a node that no longer exists. *)
          if p.p_flushed then purge_registration t ~lo:r.Addr.lo ~hi:r.Addr.hi p;
          []
        end
        else if not p.p_flushed then [ (r, p) ]
        else begin
          (* The original node is replaced by its pieces below, so its
             own registration is dead too. *)
          purge_registration t ~lo:r.Addr.lo ~hi:r.Addr.hi p;
          List.map
            (fun (piece : Addr.range) ->
              let fp = { p with p_flushed = true } in
              (* Register the replacement pieces so the next fence still
                 drops them. *)
              t.tree_flushed_nodes <- (piece.Addr.lo, piece.Addr.hi, fp) :: t.tree_flushed_nodes;
              (piece, fp))
            (Addr.diff r probe)
        end)
  in
  if visited > 0 then found := true;
  (!found, !priors)
  end
  end

type store_result = Store_intf.store_result = { overlapped : bool; prior_seqs : int list }

let process_store t ?(check_overlap = true) ~addr ~size ~epoch ~seq ~tid ~strand () =
  let overlapped, priors = unflush_overlaps t ~need_overlap:check_overlap ~lo:addr ~hi:(addr + size) in
  if t.mode = Tree_only || t.live >= t.capacity then begin
    (* Rare overflow path (§4.1): spill straight to the tree. *)
    tree_insert_payload t ~lo:addr ~hi:(addr + size)
      { p_flushed = false; p_epoch = epoch; p_seq = seq; p_tid = tid; p_strand = strand; p_clf_seq = -1; p_fence_seq = -1 };
    Obs.Metrics.inc t.metrics "space_tree_spills_total"
  end
  else begin
    let i = t.live in
    if i = Array.length t.addrs then grow t;
    t.addrs.(i) <- addr;
    t.sizes.(i) <- size;
    t.seqs.(i) <- seq;
    t.tids.(i) <- tid;
    t.strands.(i) <- strand;
    t.clf_seqs.(i) <- -1;
    Bytes.set t.flags i (Char.unsafe_chr (if epoch then valid_bit lor epoch_bit else valid_bit));
    t.live <- i + 1;
    bounds_add t ~lo:addr ~hi:(addr + size);
    Clf_meta.note_store t.cur_meta ~idx:i ~lo:addr ~hi:(addr + size);
    Obs.Metrics.inc t.metrics "space_array_hits_total";
    Obs.Metrics.max_set t.metrics "space_array_live_peak" (float_of_int t.live)
  end;
  (* Canonical provenance: sorted, deduped, capped — independent of the
     bookkeeping walk order (array vs tree vs hybrid). *)
  { overlapped; prior_seqs = Store_intf.cap_prior_seqs priors }

type clf_result = Store_intf.clf_result = {
  matched : int;
  newly_flushed : int;
  redundant : (int * int) list;
  redundant_prov : (int * int) list;
}

(* Split a partially covered slot (§4.3): the covered part stays in the
   array (flushed); uncovered remainders go to the tree, not flushed. *)
let split_slot t i ~(flush : Addr.range) ~seq =
  let r = Addr.of_base_size t.addrs.(i) t.sizes.(i) in
  match Addr.inter r flush with
  | None -> ()
  | Some covered ->
      List.iter
        (fun (part : Addr.range) ->
          tree_insert_payload t ~lo:part.Addr.lo ~hi:part.Addr.hi
            (payload_of_slot t i ~clf_seq:(-1) ~fence_seq:(-1)))
        (Addr.diff r covered);
      t.addrs.(i) <- covered.Addr.lo;
      t.sizes.(i) <- Addr.size covered;
      set t i flushed_bit;
      t.clf_seqs.(i) <- seq

(* Close the current CLF interval and open the next (§4.3). *)
let close_interval t =
  if not (Clf_meta.is_empty t.cur_meta) then begin
    let next = Clf_meta.make ~start_idx:t.live in
    t.cur_meta.Clf_meta.next <- Some next;
    t.cur_meta <- next
  end

let process_clf ?(seq = -1) t ~lo ~hi =
  if bounds_miss t ~lo ~hi then begin
    (* Nothing tracked can overlap, but the CLF still ends the current
       interval. *)
    Obs.Metrics.inc t.metrics "space_bounds_skips_total";
    close_interval t;
    { matched = 0; newly_flushed = 0; redundant = []; redundant_prov = [] }
  end
  else begin
  let flush = Addr.range ~lo ~hi in
  let matched = ref 0 in
  let newly = ref 0 in
  let redundant = ref [] in
  let redundant_prov = ref [] in
  let visit_slot (m : Clf_meta.t) i =
    let a = t.addrs.(i) in
    let e = a + t.sizes.(i) in
    if has t i valid_bit && overlaps a e ~lo ~hi then begin
      incr matched;
      if slot_flushed t m i then begin
        redundant := (a, t.sizes.(i)) :: !redundant;
        let prior = if t.clf_seqs.(i) >= 0 then t.clf_seqs.(i) else m.Clf_meta.clf_seq in
        redundant_prov := (t.seqs.(i), prior) :: !redundant_prov
      end
      else if covers ~lo ~hi a e then begin
        set t i flushed_bit;
        t.clf_seqs.(i) <- seq;
        incr newly
      end
      else begin
        split_slot t i ~flush ~seq;
        incr newly
      end
    end
  in
  let visit_meta (m : Clf_meta.t) =
    if meta_overlaps m ~lo ~hi then
      if
        t.interval_metadata
        && covers ~lo ~hi m.Clf_meta.min_addr m.Clf_meta.max_addr
        && m.Clf_meta.state = Clf_meta.Not_flushed
      then begin
        (* Collective update (Pattern 2): one metadata write covers
           every location of the interval. Slots need no individual
           state change; superseded (invalidated) slots are excluded
           from the counts — they are no longer tracked locations.
           The interval records this CLF's seq as the shared flush
           provenance of every slot it covers. *)
        let n = m.Clf_meta.end_idx - m.Clf_meta.start_idx + 1 - m.Clf_meta.invalidated in
        matched := !matched + n;
        newly := !newly + n;
        m.Clf_meta.state <- Clf_meta.All_flushed;
        m.Clf_meta.clf_seq <- seq;
        Obs.Metrics.inc t.metrics "space_collective_clf_total"
      end
      else begin
        for i = m.Clf_meta.start_idx to m.Clf_meta.end_idx do
          visit_slot m i
        done;
        if t.interval_metadata && m.Clf_meta.state = Clf_meta.Not_flushed then
          m.Clf_meta.state <- Clf_meta.Partially_flushed
      end
  in
  iter_metas t visit_meta;
  (* Then the tree (§4.3): update flushing state of overlapping nodes,
     splitting partially covered ones. *)
  let visited =
    Rangetree.map_overlapping t.tree ~lo ~hi ~f:(fun r (p : payload) ->
        if p.p_flushed then begin
          redundant := (r.Addr.lo, Addr.size r) :: !redundant;
          redundant_prov := (p.p_seq, p.p_clf_seq) :: !redundant_prov;
          [ (r, p) ]
        end
        else if Addr.covers flush r then begin
          p.p_flushed <- true;
          p.p_clf_seq <- seq;
          incr newly;
          t.tree_flushed_nodes <- (r.Addr.lo, r.Addr.hi, p) :: t.tree_flushed_nodes;
          [ (r, p) ]
        end
        else begin
          match Addr.inter r flush with
          | None -> [ (r, p) ]
          | Some covered ->
              incr newly;
              let rest = Addr.diff r covered in
              let fp = { p with p_flushed = true; p_clf_seq = seq } in
              t.tree_flushed_nodes <- (covered.Addr.lo, covered.Addr.hi, fp) :: t.tree_flushed_nodes;
              (covered, fp) :: List.map (fun part -> (part, { p with p_flushed = false; p_clf_seq = -1 })) rest
        end)
  in
  matched := !matched + visited;

  close_interval t;
  {
    matched = !matched;
    newly_flushed = !newly;
    redundant = List.rev !redundant;
    redundant_prov = List.rev !redundant_prov;
  }
  end

let process_fence ?(seq = -1) t =
  (* Tree first (§4.4): drop the nodes this fence interval's CLFs
     flushed (unless a later store un-flushed or superseded them). *)
  List.iter
    (fun (lo, hi, (p : payload)) -> if p.p_flushed then ignore (Rangetree.remove_first t.tree ~lo ~hi (fun x -> x == p)))
    t.tree_flushed_nodes;
  t.tree_flushed_nodes <- [];
  (* Array: per interval, All_flushed drops wholesale (metadata
     invalidation only); otherwise flushed slots drop and unflushed
     slots migrate to the tree. A migrating payload is stamped with
     this fence's seq — the first fence the location crossed without
     persisting, which causal chains report; tree survivors keep the
     stamp of their own first crossing (no O(tree) sweep). *)
  let migrated = ref 0 in
  let visit_meta (m : Clf_meta.t) =
    if not (Clf_meta.is_empty m) then
      if t.interval_metadata && m.Clf_meta.state = Clf_meta.All_flushed then ()
      else
        for i = m.Clf_meta.start_idx to m.Clf_meta.end_idx do
          if has t i valid_bit && not (slot_flushed t m i) then begin
            tree_insert_payload t ~lo:t.addrs.(i) ~hi:(t.addrs.(i) + t.sizes.(i)) (payload_of_slot t i ~clf_seq:t.clf_seqs.(i) ~fence_seq:seq);
            incr migrated
          end
        done
  in
  iter_metas t visit_meta;
  Obs.Metrics.inc t.metrics ~by:!migrated "space_fence_migrations_total";
  Obs.Metrics.max_set t.metrics "space_tree_size_peak" (float_of_int (Rangetree.size t.tree));
  t.live <- 0;
  let meta = Clf_meta.make ~start_idx:0 in
  t.first_meta <- meta;
  t.cur_meta <- meta;
  (* Merge only past the threshold (§4.4) and only when the tree has
     actually grown since the last pass — re-merging an unmergeable
     tree at every fence would be quadratic. *)
  if Rangetree.size t.tree > t.merge_threshold && Rangetree.size t.tree >= t.last_reorg_size + (t.merge_threshold / 2)
  then begin
    t.last_reorg_size <- Rangetree.size t.tree;
    Rangetree.reorganize t.tree
      ~eq:(fun a b -> a.p_flushed = b.p_flushed && a.p_epoch = b.p_epoch && a.p_strand = b.p_strand)
      ~merge:(fun a b -> if a.p_seq >= b.p_seq then a else b);
    Obs.Metrics.inc t.metrics "space_reorganizations_total";
    Obs.Metrics.inc t.metrics ~by:(max 0 (t.last_reorg_size - Rangetree.size t.tree)) "space_interval_merges_total";
    t.last_reorg_size <- Rangetree.size t.tree
  end;
  (* The array is empty again: only the tree bounds the tracked set. *)
  bounds_reset_from_tree t

let iter_pending t f =
  iter_metas t (fun m ->
      if not (Clf_meta.is_empty m) then
        for i = m.Clf_meta.start_idx to m.Clf_meta.end_idx do
          if has t i valid_bit then
            (* Individually flushed slots carry their own CLF seq; a slot
               flushed only via the collective interval state inherits
               the interval's. *)
            let clf_seq = if t.clf_seqs.(i) >= 0 then t.clf_seqs.(i) else m.Clf_meta.clf_seq in
            f ~addr:t.addrs.(i) ~size:t.sizes.(i) ~flushed:(slot_flushed t m i) ~epoch:(has t i epoch_bit)
              ~seq:t.seqs.(i) ~clf_seq ~fence_seq:(-1)
        done);
  Rangetree.iter t.tree (fun r p ->
      f ~addr:r.Addr.lo ~size:(Addr.size r) ~flushed:p.p_flushed ~epoch:p.p_epoch ~seq:p.p_seq ~clf_seq:p.p_clf_seq
        ~fence_seq:p.p_fence_seq)

let pending_count t =
  let n = ref 0 in
  iter_pending t (fun ~addr:_ ~size:_ ~flushed:_ ~epoch:_ ~seq:_ ~clf_seq:_ ~fence_seq:_ -> incr n);
  !n

exception Found

let has_pending_overlap t ~lo ~hi =
  if bounds_miss t ~lo ~hi then begin
    Obs.Metrics.inc t.metrics "space_bounds_skips_total";
    false
  end
  else
    try
      iter_metas t (fun m ->
          if meta_overlaps m ~lo ~hi then
            for i = m.Clf_meta.start_idx to m.Clf_meta.end_idx do
              if has t i valid_bit && overlaps t.addrs.(i) (t.addrs.(i) + t.sizes.(i)) ~lo ~hi then raise Found
            done);
      Rangetree.find_first_overlap t.tree ~lo ~hi <> None
    with Found -> true

let exists_epoch_pending t =
  try
    iter_metas t (fun m ->
        if not (Clf_meta.is_empty m) then
          for i = m.Clf_meta.start_idx to m.Clf_meta.end_idx do
            if has t i valid_bit && has t i epoch_bit then raise Found
          done);
    Rangetree.iter t.tree (fun _ p -> if p.p_epoch then raise Found);
    false
  with Found -> true

let tree_size t = Rangetree.size t.tree

let note_fence_sample t =
  t.fence_samples <- t.fence_samples + 1;
  t.tree_size_sum <- t.tree_size_sum + Rangetree.size t.tree

let avg_tree_nodes_per_fence t =
  if t.fence_samples = 0 then 0.0 else float_of_int t.tree_size_sum /. float_of_int t.fence_samples

let reorganizations t = (Rangetree.stats t.tree).Rangetree.reorganizations

let stats t =
  [
    ("tree_size", float_of_int (tree_size t));
    ("tree_flushed_nodes", float_of_int (List.length t.tree_flushed_nodes));
    ("tree_max_size", float_of_int (Rangetree.stats t.tree).Rangetree.max_size);
    ("array_live", float_of_int t.live);
    ("avg_tree_nodes_per_fence", avg_tree_nodes_per_fence t);
    ("reorganizations", float_of_int (reorganizations t));
    ("rotations", float_of_int (Rangetree.stats t.tree).Rangetree.rotations);
  ]

(* The hybrid space as a pluggable bookkeeping backend. *)
module Store = struct
  type nonrec t = t

  let name = "hybrid"
  let process_store = process_store
  let process_clf = process_clf
  let process_fence = process_fence
  let has_pending_overlap = has_pending_overlap
  let exists_epoch_pending = exists_epoch_pending
  let iter_pending = iter_pending
  let tree_size = tree_size
  let note_fence_sample = note_fence_sample
  let avg_tree_nodes_per_fence = avg_tree_nodes_per_fence
  let reorganizations = reorganizations
end

let backend ?array_capacity ?merge_threshold ?mode ?interval_metadata ?metrics () : Store_intf.backend =
 fun () ->
  Store_intf.Instance
    ((module Store), create ?array_capacity ?merge_threshold ?mode ?interval_metadata ?metrics ())
