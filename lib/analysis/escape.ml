(* Thread-escape analysis.

   An abstract object escapes when it can be reached by more than one
   abstract thread (entry-callback root or framework-dispatched callback /
   spawned thread) or through a static field. Races are only reported on
   escaping objects — the standard Chord pipeline step (§5).

   Thread entries are the points-to roots plus the targets of API edges
   (posted callbacks, spawned runnables): exactly the nodes that
   threadification turns into threads. *)

module IntSet = Pta.IntSet

type t = {
  escaping : IntSet.t;  (** object ids accessible to >= 2 threads or statics *)
}

(* One pass over the points-to table, filing each non-empty cell under
   its instance or its base object without merging: [run]'s closures
   visit the sets in turn and their stamps absorb the overlap, so no
   union is ever built. *)
let index_pts pta : IntSet.t list array * IntSet.t list array * IntSet.t list =
  let by_inst = Array.make (max 1 (Pta.n_instances pta)) [] in
  let by_obj = Array.make (max 1 (Pta.n_objects pta)) [] in
  let statics = ref [] in
  Pta.NodeTbl.iter
    (fun node c ->
      let s = c.Pta.c_pts in
      if not (IntSet.is_empty s) then
        match node with
        | Pta.Nvar (i, _) | Pta.Nret i -> by_inst.(i) <- s :: by_inst.(i)
        | Pta.Nfld (o, _) -> by_obj.(o) <- s :: by_obj.(o)
        | Pta.Nstatic _ -> statics := s :: !statics)
    pta.Pta.pts;
  (by_inst, by_obj, !statics)

let thread_entries pta : int list =
  let roots = List.map (fun r -> r.Pta.r_instance) (Pta.roots pta) in
  let posted =
    List.filter_map
      (fun e -> match e.Pta.ce_kind with Pta.E_api _ -> Some e.Pta.ce_to | Pta.E_ordinary -> None)
      (Pta.edges pta)
  in
  List.sort_uniq Int.compare (roots @ posted)

(* The per-entry closures run on dense arrays: the field successors
   filed per object, a per-object count, and a per-object stamp naming
   the last entry that reached it (no per-entry clearing). A closure
   stops at an object two earlier entries already reached: each of them
   completed its own closure below that object, so every object under
   it already counts >= 2 and the escaping set is exactly the one an
   unpruned walk gives. Each object is therefore descended through at
   most twice across all entries, plus once per entry that stops at
   it. *)
let run (pta : Pta.t) : t =
  let by_inst, field_succ, statics = index_pts pta in
  let n_objs = Array.length field_succ in
  (* objects seen by at least two thread entries escape *)
  let counts = Array.make n_objs 0 in
  let stamp = Array.make n_objs (-1) in
  List.iteri
    (fun gen entry ->
      let rec go oid =
        if stamp.(oid) <> gen && counts.(oid) < 2 then begin
          stamp.(oid) <- gen;
          counts.(oid) <- counts.(oid) + 1;
          List.iter (IntSet.iter go) field_succ.(oid)
        end
      in
      IntSet.iter
        (fun i -> List.iter (IntSet.iter go) by_inst.(i))
        (Pta.intra_instances pta entry))
    (thread_entries pta);
  (* statics escape unconditionally *)
  let escaping = ref IntSet.empty in
  let rec from_static oid =
    if not (IntSet.mem oid !escaping) then begin
      escaping := IntSet.add oid !escaping;
      List.iter (IntSet.iter from_static) field_succ.(oid)
    end
  in
  List.iter (IntSet.iter from_static) statics;
  Array.iteri (fun oid n -> if n >= 2 then escaping := IntSet.add oid !escaping) counts;
  { escaping = !escaping }

let escapes t oid = IntSet.mem oid t.escaping

let n_escaping t = IntSet.cardinal t.escaping
