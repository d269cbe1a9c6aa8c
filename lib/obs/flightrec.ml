(* Flight recorder: a fixed-capacity ring of recent structured events.
   The recording path allocates nothing — parallel arrays instead of an
   entry record (a record mixing float and int fields would box the
   float on every write), caller-supplied timestamps (no clock call
   behind the caller's back), and required labelled int arguments
   (optional ints would box in Some). A disabled ring costs exactly one
   branch per record call, mirroring Obs.Metrics, so the engine hot
   path carries the hook unconditionally. Like a Metrics registry, a
   ring is single-domain: multi-domain components give each domain its
   own ring and merge them at dump time (Tracecat). *)

type t = {
  mutable on : bool;
  frozen : bool; (* the shared [disabled] singleton must stay off *)
  cap : int;
  mutable next : int; (* total records ever; the live slot is [next mod cap] *)
  cats : string array;
  names : string array;
  az : int array;
  bz : int array;
  ts : float array; (* separate unboxed array: no float boxing on write *)
}

let create ?(capacity = 512) ?(enabled = true) () =
  if capacity < 1 then invalid_arg "Obs.Flightrec.create: capacity must be >= 1";
  {
    on = enabled;
    frozen = false;
    cap = capacity;
    next = 0;
    cats = Array.make capacity "";
    names = Array.make capacity "";
    az = Array.make capacity 0;
    bz = Array.make capacity 0;
    ts = Array.make capacity 0.0;
  }

let disabled =
  {
    on = false;
    frozen = true;
    cap = 1;
    next = 0;
    cats = [| "" |];
    names = [| "" |];
    az = [| 0 |];
    bz = [| 0 |];
    ts = [| 0.0 |];
  }

let is_on t = t.on

let set_enabled t b =
  if t.frozen then invalid_arg "Obs.Flightrec.set_enabled: the shared disabled ring is immutable";
  t.on <- b

let capacity t = t.cap

let recorded t = t.next

let clear t = t.next <- 0

let record t ~ts ~cat ~name ~a ~b =
  if not t.on then ()
  else begin
    let i = t.next mod t.cap in
    t.cats.(i) <- cat;
    t.names.(i) <- name;
    t.az.(i) <- a;
    t.bz.(i) <- b;
    t.ts.(i) <- ts;
    t.next <- t.next + 1
  end

(* ---------------------------------------------------------------- *)
(* Reading the window                                                *)
(* ---------------------------------------------------------------- *)

type entry = {
  e_seq : int; (* global record index, 0-based, survives wrap-around *)
  e_ts : float;
  e_cat : string;
  e_name : string;
  e_a : int;
  e_b : int;
}

let window ?last t =
  let live = min t.next t.cap in
  let n = match last with Some k -> min (max 0 k) live | None -> live in
  let first = t.next - n in
  List.init n (fun i ->
      let seq = first + i in
      let slot = seq mod t.cap in
      {
        e_seq = seq;
        e_ts = t.ts.(slot);
        e_cat = t.cats.(slot);
        e_name = t.names.(slot);
        e_a = t.az.(slot);
        e_b = t.bz.(slot);
      })

(* ---------------------------------------------------------------- *)
(* Perfetto rendering                                                *)
(* ---------------------------------------------------------------- *)

(* [us] maps timestamps to non-negative integer microseconds relative
   to the earliest entry across all rings (Tracecat.merge picks the
   origin), so wall-clock and virtual-time rings both render.
   cat="session" entries are grouped by session id (the [a] argument)
   and drawn as lifecycle slices:
   consecutive transitions pair into complete slices named after the
   phase being left; the final entry is an instant when terminal
   ([b] = 1, named after the exit status) and an open begin_slice when
   the session was still in flight at dump time. Everything else
   renders as instants carrying a/b as args. *)
let render_entries p ~tid ~us entries =
  let sessions = Hashtbl.create 8 in
  List.iter
    (fun e ->
      if e.e_cat = "session" then
        Hashtbl.replace sessions e.e_a (e :: (Option.value ~default:[] (Hashtbl.find_opt sessions e.e_a)))
      else
        Perfetto.instant ~cat:e.e_cat ~tid p ~name:e.e_name ~ts:(us e.e_ts)
          ~args:[ ("a", Json.Int e.e_a); ("b", Json.Int e.e_b) ])
    entries;
  (* Deterministic session order: by id. *)
  Hashtbl.fold (fun id es acc -> (id, List.rev es) :: acc) sessions []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.iter (fun (id, es) ->
         let args = [ ("session", Json.Int id) ] in
         let rec slices = function
           | [] -> ()
           | [ final ] ->
               if final.e_b = 1 then
                 Perfetto.instant ~cat:"session" ~tid p ~name:final.e_name ~ts:(us final.e_ts) ~args
               else
                 Perfetto.begin_slice ~cat:"session" ~tid p ~name:final.e_name ~ts:(us final.e_ts)
                   ~args
           | a :: (b :: _ as rest) ->
               Perfetto.complete ~cat:"session" ~tid p ~name:a.e_name ~ts:(us a.e_ts)
                 ~dur:(us b.e_ts - us a.e_ts) ~args;
               slices rest
         in
         slices es)
