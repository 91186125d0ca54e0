(* No-sleep / energy-bug detection — the paper's §9 extension.

   "nAdroid can be applied to other concurrency bugs such as no-sleep
   bugs and energy bugs where racy API calls lead to ordering
   violations." A wake lock acquired by one callback must be released on
   every continuation; when the only releases live in callbacks that are
   not guaranteed to run after the acquire (no MHB order, cancellable,
   unordered UI events), the device can be kept awake forever — an
   ordering violation between [acquire] and [release] instead of between
   [putfield null] and [getfield].

   The detector reuses the same machinery as UAF detection: the
   threadification forest for callback structure, points-to for wake-lock
   identity, and an MHB-style teardown filter: a release in onPause /
   onStop / onDestroy of the owning component is guaranteed before the
   app is backgrounded, so such pairs are pruned (the analogue of the
   §6.1.1 lifecycle reasoning). *)

open Nadroid_ir
open Nadroid_analysis
module IntSet = Pta.IntSet

type kind =
  | No_release  (** no matching release is reachable anywhere *)
  | Leaky_path  (** same callback may exit without releasing *)
  | Unordered_release
      (** releases exist, but only in callbacks with no guaranteed order
          after the acquire *)

let pp_kind ppf = function
  | No_release -> Fmt.string ppf "no-release"
  | Leaky_path -> Fmt.string ppf "leaky-path"
  | Unordered_release -> Fmt.string ppf "unordered-release"

type warning = {
  nw_kind : kind;
  nw_acquire : Detect.site;
  nw_thread : int;  (** thread performing the acquire *)
  nw_releases : (int * Detect.site) list;  (** (thread, site) of aliasing releases *)
}

let pp ppf w =
  Fmt.pf ppf "no-sleep %a: acquire at %a%a" pp_kind w.nw_kind Detect.pp_site w.nw_acquire
    (fun ppf rels ->
      match rels with
      | [] -> ()
      | _ :: _ ->
          Fmt.pf ppf "; releases: %a"
            Fmt.(list ~sep:(any ", ") (using snd Detect.pp_site))
            rels)
    w.nw_releases

type lock_call = { lc_thread : int; lc_site : Detect.site; lc_objs : IntSet.t }

(* All WakeLock.acquire / WakeLock.release calls per thread. *)
let collect (tf : Threadify.t) : lock_call list * lock_call list =
  let pta = tf.Threadify.pta in
  let acquires = ref [] and releases = ref [] in
  List.iter
    (fun th ->
      if th.Threadify.th_entry >= 0 then
        IntSet.iter
          (fun inst_id ->
            match Pta.inst_body pta inst_id with
            | None -> ()
            | Some body ->
                Cfg.iter_instrs
                  (fun ins ->
                    match ins.Instr.i with
                    | Instr.Call (_, recv, ms, _)
                      when String.equal ms.Nadroid_lang.Sema.ms_class "WakeLock" ->
                        let call =
                          {
                            lc_thread = th.Threadify.th_id;
                            lc_site =
                              {
                                Detect.s_inst = inst_id;
                                s_mref = (Pta.instance pta inst_id).Pta.i_mref;
                                s_instr = ins;
                              };
                            lc_objs = Pta.pts_var pta ~inst:inst_id ~v:recv;
                          }
                        in
                        if String.equal ms.Nadroid_lang.Sema.ms_name "acquire" then
                          acquires := call :: !acquires
                        else if String.equal ms.Nadroid_lang.Sema.ms_name "release" then
                          releases := call :: !releases
                    | Instr.Call _ | Instr.Move _ | Instr.Const _ | Instr.New _
                    | Instr.Getfield _ | Instr.Putfield _ | Instr.Getstatic _
                    | Instr.Putstatic _ | Instr.Intrinsic _ | Instr.Unop _ | Instr.Binop _
                    | Instr.Monitor_enter _ | Instr.Monitor_exit _ ->
                        ())
                  body)
          (Threadify.instances_of tf th))
    (Threadify.threads tf);
  (!acquires, !releases)

let overlaps a b = not (IntSet.is_empty (IntSet.inter a b))

(* May the callback exit after [acquire] without passing an aliasing
   release? Intra-procedural path-insensitive may-analysis over the CFG,
   mirroring how the UAF filters reason about callbacks. *)
let leaky_path (prog : Prog.t) (acq : lock_call) : bool =
  match Prog.body prog acq.lc_site.Detect.s_mref with
  | None -> true
  | Some body ->
      let releases_here ins =
        match ins.Instr.i with
        | Instr.Call (_, _, ms, _) ->
            String.equal ms.Nadroid_lang.Sema.ms_class "WakeLock"
            && String.equal ms.Nadroid_lang.Sema.ms_name "release"
        | Instr.Move _ | Instr.Const _ | Instr.New _ | Instr.Getfield _ | Instr.Putfield _
        | Instr.Getstatic _ | Instr.Putstatic _ | Instr.Intrinsic _ | Instr.Unop _
        | Instr.Binop _ | Instr.Monitor_enter _ | Instr.Monitor_exit _ ->
            false
      in
      (* walk from the acquire to block exits; a block whose suffix (or a
         reachable successor) hits a release is safe along that path *)
      let blocks = body.Cfg.blocks in
      let acq_block =
        Array.to_list blocks
        |> List.find_opt (fun blk ->
               List.exists (fun i -> i.Instr.id = acq.lc_site.Detect.s_instr.Instr.id) blk.Cfg.b_instrs)
      in
      (match acq_block with
      | None -> true
      | Some blk0 ->
          (* instructions after the acquire within its own block *)
          let rec after = function
            | [] -> []
            | i :: rest ->
                if i.Instr.id = acq.lc_site.Detect.s_instr.Instr.id then rest else after rest
          in
          let visited = Hashtbl.create 8 in
          (* returns true when an exit is reachable without a release *)
          let rec escapes_block instrs blk =
            if List.exists releases_here instrs then false
            else
              match blk.Cfg.b_term with
              | Cfg.Ret _ -> true
              | Cfg.Goto n -> escapes n
              | Cfg.If { t; f; _ } -> escapes t || escapes f
          and escapes bid =
            if Hashtbl.mem visited bid then false
            else begin
              Hashtbl.add visited bid ();
              let blk = blocks.(bid) in
              escapes_block blk.Cfg.b_instrs blk
            end
          in
          escapes_block (after blk0.Cfg.b_instrs) blk0)

(* Is a release guaranteed to run once the app leaves the foreground?
   Releases in the teardown callbacks (onPause/onStop/onDestroy) of the
   acquiring thread's component qualify — the lifecycle automaton forces
   them before the device would want to sleep. *)
let teardown_release (tf : Threadify.t) (acq : lock_call) (rel : lock_call) : bool =
  let rth = Threadify.thread tf rel.lc_thread in
  let ath = Threadify.thread tf acq.lc_thread in
  match rth.Threadify.th_kind with
  | Threadify.Entry_cb (Nadroid_android.Callback.Lifecycle m)
  | Threadify.Entry_cb (Nadroid_android.Callback.Service_lifecycle m) ->
      List.mem m [ "onPause"; "onStop"; "onDestroy" ]
      && (match (ath.Threadify.th_component, rth.Threadify.th_component) with
         | Some a, Some b -> String.equal a b
         | (Some _ | None), _ -> false)
  | Threadify.Dummy_main | Threadify.Entry_cb _ | Threadify.Posted_cb _
  | Threadify.Native_thread | Threadify.Async_background ->
      false

(* Detect no-sleep ordering violations over a threadified program. *)
let detect (tf : Threadify.t) : warning list =
  let prog = tf.Threadify.pta.Pta.prog in
  let acquires, releases = collect tf in
  List.filter_map
    (fun acq ->
      let aliasing = List.filter (fun rel -> overlaps acq.lc_objs rel.lc_objs) releases in
      let mk kind =
        Some
          {
            nw_kind = kind;
            nw_acquire = acq.lc_site;
            nw_thread = acq.lc_thread;
            nw_releases = List.map (fun r -> (r.lc_thread, r.lc_site)) aliasing;
          }
      in
      match aliasing with
      | [] -> mk No_release
      | _ :: _ ->
          let same_cb_safe =
            List.exists (fun r -> r.lc_thread = acq.lc_thread) aliasing
            && not (leaky_path prog acq)
          in
          let teardown_safe = List.exists (fun r -> teardown_release tf acq r) aliasing in
          if same_cb_safe || teardown_safe then None
          else if List.exists (fun r -> r.lc_thread = acq.lc_thread) aliasing then
            mk Leaky_path
          else mk Unordered_release)
    acquires
