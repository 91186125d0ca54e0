(* bench fleet: the corpus scale-out driver (BENCH_8).

   Analyzes a seeded {!Megacorpus} (Table 1-shaped sizes, a configurable
   adversarial fraction) through {!Parallel.stream} under each scheduler
   — work-stealing (the headline), the static per-domain split (the
   baseline it must beat on an adversarial mix) and, for corpora small
   enough, a sequential reference — and insists the three runs are
   byte-identical: every emitted per-app JSON object is folded into one
   chained digest, never accumulated, so the driver itself obeys the
   O(window) memory discipline it is benchmarking. Sources materialize
   lazily (generate→analyze→drop); with --cache the batch runs through
   the analysis cache under --cache-max-bytes pressure, on a scratch
   subdirectory cleared between runs so no run starts warm.

   Headline metrics: apps/sec, peak RSS (VmHWM — read after the steal
   run, which goes first, so later runs can't inflate it), per-domain
   utilization, and the straggler profile (per-app wall p50/p99/max).
   Exits 1 on any fault or any cross-scheduler digest mismatch. *)

open Nadroid_corpus
module Pipeline = Nadroid_core.Pipeline
module Fault = Nadroid_core.Fault
module Cache = Nadroid_core.Cache
module Parallel = Nadroid_core.Parallel
module Protocol = Nadroid_serve.Protocol
module Clock = Nadroid_clock.Clock

let bench8_json_file = "BENCH_8.json"

(* VmHWM (peak resident set) in kB from /proc/self/status; 0 where the
   proc filesystem is unavailable. *)
let vm_hwm_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let rec scan () =
            match input_line ic with
            | exception End_of_file -> 0
            | line -> (
                match Scanf.sscanf line "VmHWM: %d kB" Fun.id with
                | kb -> kb
                | exception (Scanf.Scan_failure _ | End_of_file | Failure _) -> scan ())
          in
          scan ())

(* Clear a scratch cache directory (cache-written files only). *)
let rm_cache_dir dir =
  if Sys.file_exists dir then begin
    (match Sys.readdir dir with
    | exception Sys_error _ -> ()
    | names ->
        Array.iter
          (fun f ->
            if Filename.check_suffix f ".cache" || String.length f >= 5 && String.sub f 0 5 = ".tmp."
            then try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
          names);
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  end

type run_stats = {
  rs_label : string;
  rs_elapsed : float;
  rs_digest : string;
  rs_faults : int;
  rs_walls : float array;  (** per-app wall, corpus order *)
  rs_util : (int * float) list;  (** (domain slot, busy seconds), slot-sorted *)
  rs_hwm_kb : int;  (** VmHWM right after this run *)
}

(* One full pass over the plan under [sched]. All mutation happens in
   [emit], which {!Parallel.stream} serializes, so no locking here. *)
let run_one ~label ~jobs ~window ~sched ~cache plan : run_stats =
  let n = Array.length plan in
  let config = Pipeline.default_config in
  let digest = ref (Digest.string "") in
  let faults = ref 0 in
  let walls = Array.make n 0.0 in
  let busy : (int, float) Hashtbl.t = Hashtbl.create 16 in
  let t0 = Clock.now () in
  Parallel.stream ~jobs ~window ~sched ~n
    (fun i ->
      let app = plan.(i) in
      let src = Megacorpus.source app in
      let ts = Clock.now () in
      let r =
        Result.map fst
          (Nadroid_core.Batch.analyze None ?cache ~config ~file:app.Megacorpus.mc_name src)
      in
      (r, Clock.now () -. ts, (Domain.self () :> int)))
    (fun i out ->
      let name = plan.(i).Megacorpus.mc_name in
      let line =
        match out with
        | Ok (Ok e, wall, dom) ->
            walls.(i) <- wall;
            Hashtbl.replace busy dom
              (wall +. Option.value ~default:0.0 (Hashtbl.find_opt busy dom));
            Protocol.entry_json ~name e
        | Ok (Error f, wall, dom) ->
            incr faults;
            walls.(i) <- wall;
            Hashtbl.replace busy dom
              (wall +. Option.value ~default:0.0 (Hashtbl.find_opt busy dom));
            Nadroid_core.Report.fault_to_json ~name f
        | Error e ->
            incr faults;
            Nadroid_core.Report.fault_to_json ~name (Fault.of_exn e)
      in
      digest := Digest.string (Digest.to_hex !digest ^ line));
  let elapsed = Clock.now () -. t0 in
  let util =
    List.sort compare (Hashtbl.fold (fun d b acc -> (d, b) :: acc) busy [])
  in
  {
    rs_label = label;
    rs_elapsed = elapsed;
    rs_digest = Digest.to_hex !digest;
    rs_faults = !faults;
    rs_walls = walls;
    rs_util = util;
    rs_hwm_kb = vm_hwm_kb ();
  }

(* Nearest-rank percentile over a sorted array (same rule as the serve
   bench). *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(min (n - 1) (int_of_float (p *. float_of_int (n - 1) +. 0.5)))

let straggler rs =
  let sorted = Array.copy rs.rs_walls in
  Array.sort compare sorted;
  (percentile sorted 0.50, percentile sorted 0.99, percentile sorted 1.0)

let run_json ~jobs rs =
  let p50, p99, wmax = straggler rs in
  let util_json =
    String.concat ","
      (List.mapi
         (fun i (_, b) ->
           Printf.sprintf "{\"slot\":%d,\"busy\":%.6f,\"util\":%.4f}" i b
             (if rs.rs_elapsed > 0.0 then b /. rs.rs_elapsed else 0.0))
         rs.rs_util)
  in
  ignore jobs;
  Printf.sprintf
    "{\"label\":%S,\"elapsed\":%.6f,\"apps_per_sec\":%.3f,\"faults\":%d,\"digest\":%S,\"straggler\":{\"p50\":%.6f,\"p99\":%.6f,\"max\":%.6f},\"utilization\":[%s],\"vm_hwm_kb\":%d}"
    rs.rs_label rs.rs_elapsed
    (if rs.rs_elapsed > 0.0 then
       float_of_int (Array.length rs.rs_walls) /. rs.rs_elapsed
     else 0.0)
    rs.rs_faults rs.rs_digest p50 p99 wmax util_json rs.rs_hwm_kb

let run ~jobs ~json ~window ~apps ~adversarial ~seed ~cache ~cache_max_bytes () =
  ignore (Lazy.force Nadroid_lang.Builtins.program);
  let spec =
    {
      Megacorpus.mc_seed = seed;
      mc_apps = apps;
      mc_adversarial = adversarial;
      mc_loc_scale = 1.0;
    }
  in
  let plan = Megacorpus.plan spec in
  let nadv =
    Array.fold_left
      (fun n (a : Megacorpus.app) ->
        match a.Megacorpus.mc_kind with Megacorpus.Adversarial _ -> n + 1 | Megacorpus.Normal _ -> n)
      0 plan
  in
  let scratch label =
    match cache with
    | None -> None
    | Some dir ->
        Some (Filename.concat dir (Printf.sprintf "fleet.%d.%s" (Unix.getpid ()) label))
  in
  let with_scratch label f =
    match scratch label with
    | None -> f None
    | Some dir ->
        rm_cache_dir dir;
        Fun.protect
          ~finally:(fun () -> rm_cache_dir dir)
          (fun () -> f (Some (dir, cache_max_bytes)))
  in
  (* steal first: its VmHWM reading is the honest peak of the headline
     run, not an echo of a previous pass *)
  let steal =
    with_scratch "steal" (fun cache ->
        run_one ~label:"steal" ~jobs ~window ~sched:Parallel.Steal ~cache plan)
  in
  let static =
    with_scratch "static" (fun cache ->
        run_one ~label:"static" ~jobs ~window ~sched:Parallel.Static ~cache plan)
  in
  let sequential =
    if apps <= 1000 then
      Some
        (with_scratch "seq" (fun cache ->
             run_one ~label:"sequential" ~jobs:1 ~window ~sched:Parallel.Static
               ~cache plan))
    else None
  in
  let runs = [ steal; static ] @ Option.to_list sequential in
  let identical =
    List.for_all (fun rs -> String.equal rs.rs_digest steal.rs_digest) runs
  in
  let total_faults = List.fold_left (fun a rs -> a + rs.rs_faults) 0 runs in
  let speedup =
    if steal.rs_elapsed > 0.0 then static.rs_elapsed /. steal.rs_elapsed else 0.0
  in
  if json then begin
    let doc =
      Printf.sprintf
        "{\"seed\":%d,\"apps\":%d,\"adversarial_fraction\":%.4f,\"adversarial_apps\":%d,\"jobs\":%d,\"window\":%d,\"cache\":%b,\"cache_max_bytes\":%s,\"runs\":[%s],\"apps_per_sec\":%.3f,\"speedup_steal_vs_static\":%.3f,\"digests_identical\":%b,\"faults\":%d,\"vm_hwm_kb\":%d}"
        seed apps adversarial nadv jobs window (cache <> None)
        (match cache_max_bytes with Some b -> string_of_int b | None -> "null")
        (String.concat "," (List.map (run_json ~jobs) runs))
        (if steal.rs_elapsed > 0.0 then
           float_of_int apps /. steal.rs_elapsed
         else 0.0)
        speedup identical total_faults (vm_hwm_kb ())
    in
    let oc = open_out_bin bench8_json_file in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc doc);
    print_endline doc
  end
  else begin
    Eval.section
      (Printf.sprintf
         "Fleet: %d-app mega-corpus (seed %d, %d adversarial), %d jobs, window %d"
         apps seed nadv jobs window);
    List.iter
      (fun rs ->
        let p50, p99, wmax = straggler rs in
        Printf.printf
          "  %-10s %8.3f s  %8.1f apps/s  faults %d  straggler p50 %.4f p99 %.4f max %.4f\n"
          rs.rs_label rs.rs_elapsed
          (if rs.rs_elapsed > 0.0 then
             float_of_int apps /. rs.rs_elapsed
           else 0.0)
          rs.rs_faults p50 p99 wmax;
        List.iteri
          (fun i (_, b) ->
            Printf.printf "    slot %d: busy %.3f s (%.0f%%)\n" i b
              (if rs.rs_elapsed > 0.0 then 100.0 *. b /. rs.rs_elapsed else 0.0))
          rs.rs_util)
      runs;
    Printf.printf "  steal vs static: %.2fx;  digests %s;  peak RSS %d kB\n" speedup
      (if identical then "identical" else "DIFFER")
      (vm_hwm_kb ())
  end;
  if total_faults > 0 || not identical then exit 1
