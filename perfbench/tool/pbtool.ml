(* pbtool — the benchmark's in-process side.

     pbtool gen-corpus DIR                     write the 27 corpus apps as DIR/<name>
     pbtool gen-pool DIR SEED APPS INDEX...    write Megacorpus apps as DIR/<mc_name>
     pbtool pool-plan SEED APPS                print each pool app's name, kind and size
     pbtool trace -inputs DIR -plan FILE ...   the traced run (see [trace] below)

   The untraced benchmark drives the nadroid binary; this tool exists for
   what a binary cannot show: where each app's time and allocation go.
   The traced run composes the public layer functions in the order
   [Pipeline.analyze], [Cache.analyze], [Journal] and the serve daemon
   call them, wraps each call in a span, and checks that the composed
   report is byte-identical to the committed reference that
   [Pipeline.analyze] itself matches. *)

open Nadroid_lang
open Nadroid_ir
open Nadroid_analysis
module Pipeline = Nadroid_core.Pipeline
module Threadify = Nadroid_core.Threadify
module Detect = Nadroid_core.Detect
module Filters = Nadroid_core.Filters
module Report = Nadroid_core.Report
module Cache = Nadroid_core.Cache
module Journal = Nadroid_core.Journal
module Supervise = Nadroid_core.Supervise
module Parallel = Nadroid_core.Parallel
module Fault = Nadroid_core.Fault
module Protocol = Nadroid_serve.Protocol
module Clock = Nadroid_clock.Clock
module Corpus = Nadroid_corpus.Corpus
module Megacorpus = Nadroid_corpus.Megacorpus

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("pbtool: " ^ s); exit 1) fmt

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let read_lines path =
  String.split_on_char '\n' (read_file path) |> List.filter (fun l -> l <> "")

(* -- input generation ----------------------------------------------------- *)

let gen_corpus dir =
  List.iter
    (fun (a : Corpus.app) -> write_file (Filename.concat dir a.Corpus.name) a.Corpus.source)
    (Lazy.force Corpus.all)

let gen_pool dir ~seed ~apps indices =
  let plan = Megacorpus.plan { Megacorpus.default with mc_seed = seed; mc_apps = apps } in
  List.iter
    (fun i ->
      let a = plan.(i) in
      write_file (Filename.concat dir a.Megacorpus.mc_name) (Megacorpus.source a))
    indices

let pool_plan ~seed ~apps =
  Array.iter
    (fun (a : Megacorpus.app) ->
      match a.Megacorpus.mc_kind with
      | Megacorpus.Normal loc -> Printf.printf "%s normal %d\n" a.Megacorpus.mc_name loc
      | Megacorpus.Adversarial size ->
          Printf.printf "%s adversarial %d\n" a.Megacorpus.mc_name size)
    (Megacorpus.plan { Megacorpus.default with mc_seed = seed; mc_apps = apps })

(* -- spans ---------------------------------------------------------------- *)

(* One timed call. [parent] is the index of the enclosing span in its
   op's span list (-1 for an op's root). Minor words are the calling
   domain's allocation during the call. *)
type span = {
  s_op : int;
  s_id : string;  (** the app or request the op served *)
  s_name : string;
  s_parent : int;
  s_start : float;
  s_stop : float;
  s_words : float;
  s_domain : int;
}

(* The layer spans of one op, newest first. An op runs on one domain, so
   this needs no lock; [root] hands the finished op to [sink] under one. *)
type op = { o_index : int; o_id : string; mutable o_spans : span list }

let tracing = ref false

let sink : span list ref = ref []

let sink_lock = Mutex.create ()

let timed (o : op) name ~parent f =
  let w0 = Gc.minor_words () in
  let t0 = Clock.now () in
  let r = f () in
  let t1 = Clock.now () in
  let w1 = Gc.minor_words () in
  ( r,
    {
      s_op = o.o_index;
      s_id = o.o_id;
      s_name = name;
      s_parent = parent;
      s_start = t0;
      s_stop = t1;
      s_words = w1 -. w0;
      s_domain = (Domain.self () :> int);
    } )

let span (o : op) name f =
  if not !tracing then f ()
  else begin
    let r, s = timed o name ~parent:0 f in
    o.o_spans <- s :: o.o_spans;
    r
  end

(* Run [f] as the root span of op [o] — measured with tracing off too, for
   pass totals — and publish the op's spans. *)
let root (o : op) name f =
  let r, rs = timed o name ~parent:(-1) f in
  if !tracing then begin
    Mutex.lock sink_lock;
    sink := List.rev_append (rs :: List.rev o.o_spans) !sink;
    Mutex.unlock sink_lock
  end;
  (r, rs)

(* -- the traced composition -------------------------------------------- *)

(* Per-op deterministic work counters, summed per pass. *)
type counts = {
  mutable c_tokens : int;
  mutable c_visits : int;
  mutable c_steps : int;
  mutable c_threads : int;
  mutable c_potential : int;
  mutable c_kept : int;
  mutable c_finds : int;
  mutable c_hits : int;
  mutable c_evictions : int;
}

let new_counts () =
  {
    c_tokens = 0;
    c_visits = 0;
    c_steps = 0;
    c_threads = 0;
    c_potential = 0;
    c_kept = 0;
    c_finds = 0;
    c_hits = 0;
    c_evictions = 0;
  }

let counts_lock = Mutex.create ()

let config = Pipeline.default_config

(* Metrics of a reference [Pipeline.analyze] run. A traced entry copies it
   and overwrites the fields a response can show, so it stays valid when
   [Pipeline.metrics] grows; its timings are not measured here — the spans
   are. *)
let metrics_template : Pipeline.metrics option ref = ref None

(* [Pipeline.analyze] under the default configuration, one span per
   layer call: the same calls in the same order with the same size-derived
   budgets, so the entry is byte-identical to [Cache.entry_of_result]. *)
let analyze_traced (o : op) (c : counts) ~file src : Cache.entry =
  let steps, tuples =
    span o "pipeline.budgets" (fun () ->
        let loc = Pipeline.count_loc src in
        (Pipeline.auto_pta_steps ~loc, Pipeline.auto_pta_tuples ~loc))
  in
  let toks = span o "lang.lex" (fun () -> Lexer.tokens ~file src) in
  let ast = span o "lang.parse" (fun () -> Parser.parse_program_tokens ~file toks) in
  let sema = span o "lang.sema" (fun () -> Sema.analyze ast) in
  let prog = span o "ir.lower" (fun () -> Prog.of_sema sema) in
  let pta, degraded =
    span o "analysis.pta" (fun () ->
        let rec ladder k =
          match Pta.run_budgeted ~steps ~tuples ~k prog with
          | Some pta -> (pta, if k = config.Pipeline.k then [] else [ Pipeline.D_pta_k k ])
          | None ->
              if k > 0 then ladder (k - 1)
              else raise (Fault.Fault (Fault.Budget Fault.P_pta))
        in
        ladder config.Pipeline.k)
  in
  let esc = span o "analysis.escape" (fun () -> Escape.run pta) in
  let locks = span o "analysis.lockset" (fun () -> Lockset.run pta) in
  let threads = span o "threadify.run" (fun () -> Threadify.run pta) in
  let potential = span o "detect.run" (fun () -> Detect.run threads esc) in
  let fctx =
    span o "filters.ctx" (fun () ->
        Filters.create_ctx ~atomic_ig:config.Pipeline.atomic_ig threads esc locks)
  in
  let after_sound, after_unsound, pruned =
    span o "filters.apply" (fun () ->
        let s, ps = Filters.apply_counted fctx config.Pipeline.sound potential in
        let u, pu = Filters.apply_counted fctx config.Pipeline.unsound s in
        (s, u, ps @ pu))
  in
  let report = span o "report.render" (fun () -> Report.to_string threads after_unsound) in
  Mutex.lock counts_lock;
  c.c_tokens <- c.c_tokens + Array.length toks;
  c.c_visits <- c.c_visits + Pta.visits pta;
  c.c_steps <- c.c_steps + Pta.steps pta;
  c.c_threads <- c.c_threads + Threadify.n_threads threads;
  c.c_potential <- c.c_potential + List.length potential;
  c.c_kept <- c.c_kept + List.length after_unsound;
  Mutex.unlock counts_lock;
  {
    Cache.e_potential = List.length potential;
    e_after_sound = List.length after_sound;
    e_after_unsound = List.length after_unsound;
    e_report = report;
    e_metrics =
      {
        (Option.get !metrics_template) with
        Pipeline.m_pta_visits = Pta.visits pta;
        m_pta_steps = Pta.steps pta;
        m_pta_tuples = Pta.tuples pta;
        m_pruned = pruned;
        m_degraded = degraded;
      };
  }

(* One daemon-shaped op: decode the request line, look the cache up,
   analyze and store on a miss, journal the completion, render the
   response line — what [nadroid serve] does per request and what
   [nadroid analyze --cache --journal] does per file. *)
let serve_op (o : op) c ~cache_dir ~cache_max ~journal line =
  let a =
    match span o "protocol.parse_request" (fun () -> Protocol.parse_request line) with
    | Ok (Protocol.Analyze a) -> a
    | Ok _ | Error _ -> die "%s: request line does not parse as analyze" o.o_id
  in
  let file = Option.get a.Protocol.a_file and src = Option.get a.Protocol.a_source in
  let key, found =
    span o "cache.find" (fun () ->
        let key = Cache.key ~config src in
        (key, Cache.find ~dir:cache_dir key))
  in
  let entry =
    match found with
    | Some e, Cache.Hit ->
        Mutex.lock counts_lock;
        c.c_finds <- c.c_finds + 1;
        c.c_hits <- c.c_hits + 1;
        Mutex.unlock counts_lock;
        e
    | _ ->
        let e = analyze_traced o c ~file src in
        let evicted =
          span o "cache.store" (fun () ->
              Cache.store ~dir:cache_dir key e;
              match cache_max with
              | Some max_bytes -> Cache.evict ~dir:cache_dir ~max_bytes
              | None -> 0)
        in
        Mutex.lock counts_lock;
        c.c_finds <- c.c_finds + 1;
        c.c_evictions <- c.c_evictions + evicted;
        Mutex.unlock counts_lock;
        e
  in
  span o "journal.append" (fun () ->
      Journal.append journal { Journal.j_name = file; j_key = key; j_result = Ok entry });
  span o "protocol.render_response" (fun () -> Protocol.analyze_response ~name:file (Ok entry))

(* -- trace ---------------------------------------------------------------- *)

let canonical ~name (e : Cache.entry) =
  Printf.sprintf "app: %s\npotential: %d\nafter-sound: %d\nafter-unsound: %d\n\n%s" name
    e.Cache.e_potential e.Cache.e_after_sound e.Cache.e_after_unsound e.Cache.e_report

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let median xs =
  match List.sort compare xs with
  | [] -> 0.0
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* What one pass measured. Layer sums cover the traced ops only. *)
type pass = {
  p_traced : bool;
  p_ops : int;
  p_loc : int;  (** LOC of the sources the pass's ops carried *)
  p_start : float;
  p_wall : float;
  p_words : float;  (** sum of the ops' own minor words *)
  p_promoted : float;
  p_majors : int;
  p_counts : counts;
  p_spans : span list;
  p_replay : float;
  p_replayed : int;
  p_supervise_create : float;
  p_supervise_overhead : float;
}

let trace ~inputs ~plan ~refs ~jobs ~seconds ~work ~cache_max ~persist_cache ~pass_size
    ~supervise_ops ~spans_out =
  let names = Array.of_list (read_lines plan) in
  if Array.length names = 0 then die "empty plan %s" plan;
  let expected = Hashtbl.create 64 in
  List.iter
    (fun l ->
      match String.split_on_char ' ' l with
      | [ n; d ] -> Hashtbl.replace expected n d
      | _ -> die "bad refs line %S" l)
    (read_lines refs);
  let distinct = Hashtbl.create 64 in
  Array.iter (fun n -> Hashtbl.replace distinct n ()) names;
  let sources = Hashtbl.create 64 and request_lines = Hashtbl.create 64 in
  let locs = Hashtbl.create 64 in
  Hashtbl.iter
    (fun n () ->
      let src = read_file (Filename.concat inputs n) in
      Hashtbl.replace sources n src;
      Hashtbl.replace locs n (Pipeline.count_loc src);
      Hashtbl.replace request_lines n
        (Protocol.render_analyze
           {
             Protocol.a_path = None;
             a_source = Some src;
             a_file = Some n;
             a_k = None;
             a_sound_only = false;
             a_deadline = None;
             a_budget_pta = None;
             a_budget_tuples = None;
             a_budget_explorer = None;
             a_cache = Some true;
           }))
    distinct;
  ignore (Lazy.force Builtins.program);
  (* Reference pass (untimed): Pipeline.analyze must match the committed
     reference, and the response it implies is what every traced op must
     render byte for byte. *)
  let expected_response = Hashtbl.create 64 in
  let keys = Hashtbl.fold (fun n () acc -> n :: acc) distinct [] |> List.sort compare in
  let key_arr = Array.of_list keys in
  Parallel.stream ~jobs ~n:(Array.length key_arr)
    (fun i ->
      let n = key_arr.(i) in
      Cache.entry_of_result (Pipeline.analyze ~config ~file:n (Hashtbl.find sources n)))
    (fun i r ->
      let n = key_arr.(i) in
      match r with
      | Error e -> die "%s: Pipeline.analyze failed: %s" n (Printexc.to_string e)
      | Ok e ->
          metrics_template := Some e.Cache.e_metrics;
          let d = Digest.to_hex (Digest.string (canonical ~name:n e)) in
          (match Hashtbl.find_opt expected n with
          | Some x when String.equal x d -> ()
          | Some x -> die "%s: Pipeline.analyze output %s differs from reference %s" n d x
          | None -> die "%s: no reference digest" n);
          Hashtbl.replace expected_response n (Protocol.analyze_response ~name:n (Ok e)));
  let mismatches = Atomic.make 0 in
  let check_response n resp =
    if not (String.equal resp (Hashtbl.find expected_response n)) then begin
      prerr_endline ("pbtool: " ^ n ^ ": traced response differs from Pipeline.analyze's");
      Atomic.incr mismatches
    end
  in
  if not (Sys.file_exists work) then Sys.mkdir work 0o755;
  let persistent_cache = Filename.concat work "cache" in
  let cursor = ref 0 in
  let passes = ref [] in
  let run_pass index traced =
    tracing := traced;
    sink := [];
    let cache_dir =
      if persist_cache then persistent_cache
      else Filename.concat work (Printf.sprintf "cache.%d" index)
    in
    let jpath = Filename.concat work (Printf.sprintf "journal.%d" index) in
    let journal, _ = Journal.open_ ~path:jpath ~resume:false in
    let n = min pass_size (Array.length names) in
    let ops = Array.init n (fun i -> names.((!cursor + i) mod Array.length names)) in
    cursor := (!cursor + n) mod Array.length names;
    let c = new_counts () in
    let op_words = Atomic.make 0 in
    let g0 = Gc.quick_stat () in
    let t0 = Clock.now () in
    Parallel.stream ~jobs ~n
      (fun i ->
        let o = { o_index = i; o_id = ops.(i); o_spans = [] } in
        let resp, rs =
          root o "op" (fun () ->
              serve_op o c ~cache_dir ~cache_max ~journal
                (Hashtbl.find request_lines ops.(i)))
        in
        ignore (Atomic.fetch_and_add op_words (int_of_float rs.s_words));
        resp)
      (fun i r ->
        match r with
        | Ok resp -> check_response ops.(i) resp
        | Error e -> die "%s: op failed: %s" ops.(i) (Printexc.to_string e));
    let wall = Clock.now () -. t0 in
    let g1 = Gc.quick_stat () in
    Journal.close journal;
    let op_spans = !sink in
    (* pass-level root spans: journal replay and, when traced, the
       supervised re-run of the first ops *)
    let pass_op = { o_index = -1; o_id = "pass"; o_spans = [] } in
    let records, rs = root pass_op "journal.replay" (fun () -> Journal.replay ~path:jpath) in
    let replay = rs.s_stop -. rs.s_start and replayed = List.length records in
    let create, overhead =
      if not traced || supervise_ops = 0 then (0.0, 0.0)
      else begin
        let spool, rs = root pass_op "supervise.create" (fun () -> Supervise.create ~jobs ()) in
        let create = rs.s_stop -. rs.s_start in
        let m = min supervise_ops n in
        let walls = Array.make m 0.0 in
        Parallel.stream ~jobs ~n:m
          (fun i ->
            let so = { o_index = i; o_id = ops.(i); o_spans = [] } in
            root so "supervise.analyze" (fun () ->
                Supervise.analyze spool ~config ~file:ops.(i) (Hashtbl.find sources ops.(i))))
          (fun i r ->
            match r with
            | Ok (Ok e, rs) ->
                walls.(i) <- rs.s_stop -. rs.s_start;
                check_response ops.(i) (Protocol.analyze_response ~name:ops.(i) (Ok e))
            | Ok (Error f, _) -> die "%s: supervised: %s" ops.(i) (Fault.to_string f)
            | Error e -> die "%s: supervised: %s" ops.(i) (Printexc.to_string e));
        Supervise.shutdown spool;
        (* in-process analysis time of the same ops in this pass *)
        let inproc = Array.make m 0.0 in
        List.iter
          (fun s ->
            if s.s_op >= 0 && s.s_op < m && s.s_parent = 0
               && not (List.mem s.s_name [ "protocol.parse_request"; "cache.find"; "cache.store";
                                           "journal.append"; "protocol.render_response" ])
            then inproc.(s.s_op) <- inproc.(s.s_op) +. (s.s_stop -. s.s_start))
          op_spans;
        let extra = ref 0.0 in
        Array.iteri (fun i w -> extra := !extra +. (w -. inproc.(i))) walls;
        (create, !extra /. float_of_int m)
      end
    in
    if not persist_cache then rm_rf cache_dir;
    rm_rf jpath;
    passes :=
      {
        p_traced = traced;
        p_ops = n;
        p_loc = Array.fold_left (fun a name -> a + Hashtbl.find locs name) 0 ops;
        p_start = t0;
        p_wall = wall;
        p_words = float_of_int (Atomic.get op_words);
        p_promoted = g1.Gc.promoted_words -. g0.Gc.promoted_words;
        p_majors = g1.Gc.major_collections - g0.Gc.major_collections;
        p_counts = c;
        p_spans = (if traced then !sink else []);
        p_replay = replay;
        p_replayed = replayed;
        p_supervise_create = create;
        p_supervise_overhead = overhead;
      }
      :: !passes
  in
  let deadline = Clock.now () +. seconds in
  let index = ref 0 in
  (* traced and untraced passes alternate, so drift in machine load hits
     both sides of the overhead ratio alike; the first pass is traced so a
     warming daemon-shaped cache pays its misses under the spans *)
  while !index < 2 || Clock.now () < deadline do
    run_pass !index (!index mod 2 = 0);
    incr index
  done;
  tracing := false;
  if Atomic.get mismatches > 0 then die "%d traced response(s) differ" (Atomic.get mismatches);
  let passes = List.rev !passes in
  let traced = List.filter (fun p -> p.p_traced) passes
  and untraced = List.filter (fun p -> not p.p_traced) passes in
  (* write every traced span: one JSON object per line *)
  let oc = open_out_bin spans_out in
  List.iteri
    (fun pi p ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"pass\":%d,\"op\":%d,\"id\":%s,\"name\":%s,\"parent\":%d,\"start\":%.9f,\"end\":%.9f,\"minor_words\":%.0f,\"domain\":%d}\n"
            pi s.s_op (Protocol.escape_string s.s_id) (Protocol.escape_string s.s_name)
            s.s_parent s.s_start s.s_stop s.s_words s.s_domain)
        (List.rev p.p_spans))
    traced;
  close_out oc;
  (* per traced pass: layer self times and words *)
  (* layer figures are per traced pass, averaged, so rare work (the misses
     of a warming cache) still counts at its share *)
  let per_pass f =
    List.fold_left (fun a p -> a +. f p) 0.0 traced /. float_of_int (List.length traced)
  in
  let layer_sum p name field =
    List.fold_left
      (fun acc s -> if s.s_name = name then acc +. field s else acc)
      0.0 p.p_spans
  in
  let dur s = s.s_stop -. s.s_start and words s = s.s_words in
  let t name = per_pass (fun p -> layer_sum p name dur) in
  let w name = per_pass (fun p -> layer_sum p name words) in
  let cnt f = per_pass (fun p -> float_of_int (f p.p_counts)) in
  (* coverage: the share of each op's root span that its layer spans
     cover, over all traced ops and per op *)
  let covered, total, ops_90, ops_all =
    List.fold_left
      (fun acc p ->
        let tbl = Hashtbl.create 64 in
        List.iter
          (fun s ->
            if s.s_op >= 0 && (s.s_name = "op" || s.s_parent = 0) then begin
              let r, ch = Option.value ~default:(0.0, 0.0) (Hashtbl.find_opt tbl s.s_op) in
              if s.s_parent < 0 then Hashtbl.replace tbl s.s_op (dur s, ch)
              else Hashtbl.replace tbl s.s_op (r, ch +. dur s)
            end)
          p.p_spans;
        Hashtbl.fold
          (fun _ (r, ch) (c, t, n90, n) ->
            (c +. ch, t +. r, (if ch >= 0.9 *. r then n90 + 1 else n90), n + 1))
          tbl acc)
      (0.0, 0.0, 0, 0) traced
  in
  let busy_straggler p =
    let roots = List.filter (fun s -> s.s_parent < 0 && s.s_name = "op") p.p_spans in
    let t0 = p.p_start and t1 = p.p_start +. p.p_wall in
    let by = Hashtbl.create 8 in
    List.iter
      (fun s ->
        let b, last = Option.value ~default:(0.0, 0.0) (Hashtbl.find_opt by s.s_domain) in
        Hashtbl.replace by s.s_domain (b +. dur s, Float.max last s.s_stop))
      roots;
    let slots = Hashtbl.fold (fun _ v acc -> v :: acc) by [] in
    let elapsed = t1 -. t0 in
    let min_busy =
      if List.length slots < jobs then 0.0
      else List.fold_left (fun a (b, _) -> Float.min a b) infinity slots
    in
    let first_idle = List.fold_left (fun a (_, last) -> Float.min a last) infinity slots in
    (min_busy /. elapsed, t1 -. first_idle)
  in
  let rate ps = median (List.map (fun p -> float_of_int p.p_ops /. p.p_wall) ps) in
  let metrics =
    [
      ("lang.lex_s", t "lang.lex", "s");
      ("lang.parse_s", t "lang.parse", "s");
      ("lang.sema_s", t "lang.sema", "s");
      ("lang.lex_words", w "lang.lex", "words");
      ("lang.parse_words", w "lang.parse", "words");
      ("lang.sema_words", w "lang.sema", "words");
      ("lang.tokens", cnt (fun c -> c.c_tokens), "count");
      ("ir.lower_s", t "ir.lower", "s");
      ("ir.lower_words", w "ir.lower", "words");
      ("analysis.pta_s", t "analysis.pta", "s");
      ("analysis.pta_words", w "analysis.pta", "words");
      ("analysis.pta_visits", cnt (fun c -> c.c_visits), "count");
      ("analysis.pta_steps", cnt (fun c -> c.c_steps), "count");
      ("analysis.escape_s", t "analysis.escape", "s");
      ("analysis.lockset_s", t "analysis.lockset", "s");
      ("threadify.run_s", t "threadify.run", "s");
      ("threadify.words", w "threadify.run", "words");
      ("threadify.threads", cnt (fun c -> c.c_threads), "count");
      ("detect.run_s", t "detect.run", "s");
      ("detect.words", w "detect.run", "words");
      ("detect.potential", cnt (fun c -> c.c_potential), "count");
      ("filters.ctx_s", t "filters.ctx", "s");
      ("filters.apply_s", t "filters.apply", "s");
      ( "filters.kept_ratio",
        per_pass (fun p ->
            float_of_int p.p_counts.c_kept /. float_of_int (max 1 p.p_counts.c_potential)),
        "ratio" );
      ("report.render_s", t "report.render", "s");
      ("cache.find_s", t "cache.find", "s");
      ( "cache.hit_ratio",
        per_pass (fun p ->
            float_of_int p.p_counts.c_hits /. float_of_int (max 1 p.p_counts.c_finds)),
        "ratio" );
      ("cache.store_s", t "cache.store", "s");
      ("cache.evictions", cnt (fun c -> c.c_evictions), "count");
      ("protocol.parse_request_s", t "protocol.parse_request", "s");
      ("protocol.render_response_s", t "protocol.render_response", "s");
      ("parallel.busy_ratio", per_pass (fun p -> fst (busy_straggler p)), "ratio");
      ("parallel.straggler_s", per_pass (fun p -> snd (busy_straggler p)), "s");
      ("journal.append_s", t "journal.append", "s");
      ("journal.replay_s", per_pass (fun p -> p.p_replay), "s");
      ("journal.replayed", per_pass (fun p -> float_of_int p.p_replayed), "count");
      ("supervise.create_s", per_pass (fun p -> p.p_supervise_create), "s");
      ("supervise.overhead_s", per_pass (fun p -> p.p_supervise_overhead), "s");
      ( "gc.minor_words_per_loc",
        median
          (List.map
             (fun p -> p.p_words /. float_of_int p.p_loc)
             untraced),
        "words" );
      ("gc.promoted_words", median (List.map (fun p -> p.p_promoted) untraced), "words");
      ( "gc.major_collections",
        median (List.map (fun p -> float_of_int p.p_majors) untraced),
        "count" );
      ("trace.traced_apps_per_s", rate traced, "1/s");
      ("trace.untraced_apps_per_s", rate untraced, "1/s");
      ("trace.traced_pass_words", median (List.map (fun p -> p.p_words) traced), "words");
      ("trace.untraced_pass_words", median (List.map (fun p -> p.p_words) untraced), "words");
      ("trace.coverage", covered /. total, "ratio");
      ("trace.ops_covered_90", float_of_int ops_90 /. float_of_int ops_all, "ratio");
      ("trace.passes", float_of_int (List.length passes), "count");
      ("trace.ops", float_of_int (List.fold_left (fun a p -> a + p.p_ops) 0 passes), "count");
    ]
  in
  print_string "{";
  List.iteri
    (fun i (name, v, unit) ->
      Printf.printf "%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}" (if i = 0 then "" else ",")
        name v unit)
    metrics;
  print_string "}\n"

let () =
  (* supervised workers re-exec this binary: serve them before anything else *)
  Supervise.worker_check ();
  match Array.to_list Sys.argv |> List.tl with
  | [ "gen-corpus"; dir ] -> gen_corpus dir
  | "gen-pool" :: dir :: seed :: apps :: indices ->
      gen_pool dir ~seed:(int_of_string seed) ~apps:(int_of_string apps)
        (List.map int_of_string indices)
  | [ "pool-plan"; seed; apps ] ->
      pool_plan ~seed:(int_of_string seed) ~apps:(int_of_string apps)
  | "trace" :: args ->
      let inputs = ref "" and plan = ref "" and refs = ref "" and work = ref "" in
      let jobs = ref 1 and seconds = ref 1.0 and cache_max = ref 0 and pass_size = ref max_int in
      let persist = ref false and supervise_ops = ref 0 and spans = ref "" in
      let spec =
        [
          ("-inputs", Arg.Set_string inputs, "DIR  app sources, one file per app name");
          ("-plan", Arg.Set_string plan, "FILE  op sequence, one app name per line");
          ("-refs", Arg.Set_string refs, "FILE  '<name> <md5 of canonical report>' lines");
          ("-work", Arg.Set_string work, "DIR  scratch directory (created)");
          ("-jobs", Arg.Set_int jobs, "N  Parallel.stream slots");
          ("-seconds", Arg.Set_float seconds, "S  measure for S seconds");
          ("-cache-max", Arg.Set_int cache_max, "BYTES  LRU cap (0 = none)");
          ("-persist-cache", Arg.Set persist, " keep one cache across passes (daemon-shaped)");
          ("-pass", Arg.Set_int pass_size, "N  ops per pass (default: the whole plan)");
          ("-supervise-ops", Arg.Set_int supervise_ops, "N  ops re-run supervised per traced pass");
          ("-spans", Arg.Set_string spans, "FILE  where to write the spans (JSON lines)");
        ]
      in
      Arg.parse_argv ~current:(ref 0)
        (Array.of_list ("pbtool-trace" :: args))
        spec
        (fun a -> die "unexpected argument %s" a)
        "pbtool trace [options]";
      if !inputs = "" || !plan = "" || !refs = "" || !work = "" || !spans = "" then
        die "trace needs -inputs, -plan, -refs, -work and -spans";
      trace ~inputs:!inputs ~plan:!plan ~refs:!refs ~jobs:!jobs ~seconds:!seconds ~work:!work
        ~cache_max:(if !cache_max > 0 then Some !cache_max else None)
        ~persist_cache:!persist ~pass_size:!pass_size ~supervise_ops:!supervise_ops
        ~spans_out:!spans
  | _ ->
      prerr_endline
        "usage: pbtool gen-corpus DIR | gen-pool DIR SEED APPS INDEX... | pool-plan SEED APPS \
         | trace [options]";
      exit 2
