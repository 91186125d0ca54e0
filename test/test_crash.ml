(* The crash-survival stack, end to end: the journal replays exactly its
   valid record prefix and never a half-written tail; the cache absorbs
   injected I/O faults without losing a computed result or serving wrong
   bytes; a supervised worker that is killed, aborted or wedged costs
   exactly its own entry while the pool keeps serving; and a batch run
   killed mid-flight resumes to byte-identical output. Fault injection
   ({!Nadroid_core.Faultinject}) makes every crash deterministic. *)

module Pipeline = Nadroid_core.Pipeline
module Cache = Nadroid_core.Cache
module Fault = Nadroid_core.Fault
module Journal = Nadroid_core.Journal
module Supervise = Nadroid_core.Supervise
module Batch = Nadroid_core.Batch
module Faultinject = Nadroid_core.Faultinject
module Faultfuzz = Nadroid_corpus.Faultfuzz
module Corpus = Nadroid_corpus.Corpus
module Protocol = Nadroid_serve.Protocol
module Server = Nadroid_serve.Server
module Client = Nadroid_serve.Client
module Clock = Nadroid_clock.Clock

let is_infix affix s = Astring.String.is_infix ~affix s

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    Printf.sprintf "_crash_test.%d.%d" (Unix.getpid ()) !n

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  end

let with_dir f =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let read_file p =
  let ic = open_in_bin p in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file p s =
  let oc = open_out_bin p in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let small_app () =
  match Lazy.force Corpus.all with a :: _ -> a | [] -> Alcotest.fail "empty corpus"

let zxing () =
  match Corpus.find "Zxing" with Some a -> a | None -> Alcotest.fail "no Zxing"

let check_entry_equal msg (a : Cache.entry) (b : Cache.entry) =
  Alcotest.(check int) (msg ^ ": potential") a.Cache.e_potential b.Cache.e_potential;
  Alcotest.(check int) (msg ^ ": after-sound") a.Cache.e_after_sound b.Cache.e_after_sound;
  Alcotest.(check int) (msg ^ ": after-unsound") a.Cache.e_after_unsound b.Cache.e_after_unsound;
  Alcotest.(check string) (msg ^ ": report bytes") a.Cache.e_report b.Cache.e_report

(* -- journal ------------------------------------------------------------- *)

let zero_metrics =
  {
    Pipeline.m_frontend_lex = 0.0;
    m_frontend_parse = 0.0;
    m_frontend_sema = 0.0;
    m_frontend_lower = 0.0;
    m_pta = 0.0;
    m_aux = 0.0;
    m_threadify = 0.0;
    m_detect = 0.0;
    m_ctx = 0.0;
    m_filter = 0.0;
    m_wall = 0.0;
    m_pta_visits = 0;
    m_pta_steps = 0;
    m_pta_tuples = 0;
    m_pruned = [];
    m_degraded = [];
  }

let entry n report =
  {
    Cache.e_potential = n;
    e_after_sound = n;
    e_after_unsound = n;
    e_report = report;
    e_metrics = zero_metrics;
  }

let record name n =
  { Journal.j_name = name; j_key = "key-" ^ name; j_result = Ok (entry n name) }

let check_records msg want got =
  Alcotest.(check int) (msg ^ ": record count") (List.length want) (List.length got);
  List.iter2
    (fun (w : Journal.record) (g : Journal.record) ->
      Alcotest.(check string) (msg ^ ": name") w.Journal.j_name g.Journal.j_name;
      Alcotest.(check string) (msg ^ ": key") w.Journal.j_key g.Journal.j_key;
      match (w.Journal.j_result, g.Journal.j_result) with
      | Ok we, Ok ge -> check_entry_equal (msg ^ ": " ^ w.Journal.j_name) we ge
      | Error wf, Error gf ->
          Alcotest.(check string)
            (msg ^ ": fault")
            (Fault.to_string wf) (Fault.to_string gf)
      | _ -> Alcotest.failf "%s: %s changed ok/error side" msg w.Journal.j_name)
    want got

let journal_roundtrip () =
  with_dir (fun dir ->
      let path = Filename.concat dir "journal" in
      let records =
        [
          record "a" 1;
          record "b" 2;
          { Journal.j_name = "c"; j_key = "key-c"; j_result = Error (Fault.Internal "boom") };
        ]
      in
      let j, replayed = Journal.open_ ~path ~resume:false in
      Alcotest.(check int) "fresh journal is empty" 0 (List.length replayed);
      List.iter (Journal.append j) records;
      Journal.close j;
      check_records "replay = appended" records (Journal.replay ~path);
      (* last record wins in the index *)
      let idx = Journal.latest (Journal.replay ~path @ [ record "a" 9 ]) in
      match (Hashtbl.find_opt idx "a" : Journal.record option) with
      | Some r -> (
          match r.Journal.j_result with
          | Ok e -> Alcotest.(check int) "latest a is the re-record" 9 e.Cache.e_potential
          | Error _ -> Alcotest.fail "latest a must be Ok")
      | None -> Alcotest.fail "a must be indexed")

(* A record damaged mid-file bounds the replay to the records before it;
   reopening with --resume truncates the garbage and appends after the
   valid prefix. *)
let journal_damage_bounds_replay mangle () =
  with_dir (fun dir ->
      let path = Filename.concat dir "journal" in
      let j, _ = Journal.open_ ~path ~resume:false in
      Journal.append j (record "a" 1);
      let s1 = (Unix.stat path).Unix.st_size in
      Journal.append j (record "b" 2);
      let s2 = (Unix.stat path).Unix.st_size in
      Journal.append j (record "c" 3);
      Journal.close j;
      write_file path (mangle ~s1 ~s2 (read_file path));
      check_records "only the prefix replays" [ record "a" 1 ] (Journal.replay ~path);
      (* resume-open truncates the garbage and appends cleanly after it *)
      let j, replayed = Journal.open_ ~path ~resume:true in
      check_records "resume sees the prefix" [ record "a" 1 ] replayed;
      Journal.append j (record "d" 4);
      Journal.close j;
      check_records "append after repair" [ record "a" 1; record "d" 4 ]
        (Journal.replay ~path))

(* kill mid-append: the file ends inside record b *)
let truncated_tail ~s1 ~s2 raw = String.sub raw 0 ((s1 + s2) / 2)

(* disk corruption: one payload byte of record b flipped *)
let flipped_byte ~s1 ~s2 raw =
  let b = Bytes.of_string raw in
  let i = (s1 + s2) / 2 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff));
  Bytes.to_string b

let journal_absent_or_garbage_is_empty () =
  with_dir (fun dir ->
      Unix.mkdir dir 0o755;
      Alcotest.(check int)
        "absent journal replays empty" 0
        (List.length (Journal.replay ~path:(Filename.concat dir "nope")));
      let path = Filename.concat dir "garbage" in
      write_file path "not a journal at all\n";
      Alcotest.(check int)
        "garbage journal replays empty" 0
        (List.length (Journal.replay ~path)))

(* -- frame decoder mutations ----------------------------------------------- *)

module Frame = Nadroid_core.Frame

(* [raw] with the length field of its first frame header replaced. *)
let with_length len raw =
  let nl = String.index raw '\n' in
  match String.split_on_char ' ' (String.sub raw 0 nl) with
  | [ m1; m2; digest; _ ] ->
      String.concat " " [ m1; m2; digest; len ] ^ String.sub raw nl (String.length raw - nl)
  | _ -> Alcotest.fail "not a frame header"

(* Seeded damage to framed bytes: truncations and single-bit flips. *)
let damaged ~seed raw =
  let st = Random.State.make [| seed |] in
  let n = String.length raw in
  let truncations = List.init 40 (fun _ -> String.sub raw 0 (Random.State.int st n)) in
  let flips =
    List.init 40 (fun _ ->
        let b = Bytes.of_string raw in
        let i = Random.State.int st n in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl Random.State.int st 8)));
        Bytes.to_string b)
  in
  truncations @ flips

(* Header lengths that are negative, huge, or past any string. *)
let forged raw =
  List.map
    (fun len -> with_length len raw)
    [ "-5"; "-1"; string_of_int (1 lsl 40); string_of_int (1 lsl 60);
      string_of_int (max_int - 1); string_of_int max_int ]

let elapsed f =
  let t0 = Clock.now () in
  let r = f () in
  (r, Clock.now () -. t0)

(* Whatever the damage, replay ends at a valid prefix of the appended
   records — no exception, no allocation sized by a forged length. *)
let journal_scan_survives_mutations () =
  with_dir (fun dir ->
      let path = Filename.concat dir "journal" in
      let records = List.init 4 (fun i -> record (string_of_int i) i) in
      let j, _ = Journal.open_ ~path ~resume:false in
      List.iter (Journal.append j) records;
      Journal.close j;
      let raw = read_file path in
      List.iteri
        (fun k m ->
          write_file path m;
          match elapsed (fun () -> Journal.replay ~path) with
          | got, t ->
              Alcotest.(check bool) (Printf.sprintf "mutant %d replays quickly" k) true (t < 2.0);
              check_records
                (Printf.sprintf "mutant %d replays a prefix" k)
                (List.filteri (fun i _ -> i < List.length got) records)
                got
          | exception e ->
              Alcotest.failf "mutant %d: replay raised %s" k (Printexc.to_string e))
        (damaged ~seed:11 raw @ forged raw))

(* The supervisor's reader over a pipe: each read yields an intact
   payload, clean EOF, [Failure] or [Timeout] — never [Invalid_argument]
   or [Out_of_memory], and never past its deadline. With the write end
   held open a forged length must time out rather than hang. *)
let frame_read_survives_mutations () =
  let magic = Supervise.magic in
  let payloads = [ String.make 300 'a'; String.init 700 (fun i -> Char.chr (i land 0xff)) ] in
  let raw = String.concat "" (List.map (Frame.encode ~magic) payloads) in
  let read_all ~hold m =
    let rd, wr = Unix.pipe ~cloexec:true () in
    ignore (Unix.write_substring wr m 0 (String.length m));
    if not hold then Unix.close wr;
    let deadline = Clock.now () +. 0.2 in
    let rec go acc =
      match Frame.read ~deadline ~magic rd with
      | Some p -> go (p :: acc)
      | None | (exception (Failure _ | Frame.Timeout)) -> List.rev acc
    in
    Fun.protect
      ~finally:(fun () ->
        Unix.close rd;
        if hold then Unix.close wr)
      (fun () -> go [])
  in
  (* a forged length is also read with the write end held open: the
     reader must then stop at its deadline instead of waiting for bytes
     that never come *)
  List.iteri
    (fun k (m, hold) ->
      match elapsed (fun () -> read_all ~hold m) with
      | got, t ->
          Alcotest.(check bool) (Printf.sprintf "mutant %d ends within its deadline" k) true
            (t < 1.0);
          List.iter
            (fun p ->
              Alcotest.(check bool) (Printf.sprintf "mutant %d: payload intact" k) true
                (List.mem p payloads))
            got
      | exception e ->
          Alcotest.failf "mutant %d (hold %b): read raised %s" k hold (Printexc.to_string e))
    (List.map (fun m -> (m, false)) (raw :: damaged ~seed:12 raw)
    @ List.concat_map (fun m -> [ (m, false); (m, true) ]) (forged raw));
  Alcotest.(check (list string)) "the intact stream reads back" payloads
    (read_all ~hold:false raw)

(* -- cache under injected faults ----------------------------------------- *)

let sweep_removes_only_stale_tmp () =
  with_dir (fun dir ->
      Unix.mkdir dir 0o755;
      let stale = Filename.concat dir ".tmp.stale" in
      let fresh = Filename.concat dir ".tmp.fresh" in
      let foreign = Filename.concat dir "README" in
      List.iter (fun p -> write_file p "x") [ stale; fresh; foreign ];
      Unix.utimes stale 1.0 1.0;
      Alcotest.(check int) "one stale temp swept" 1 (Cache.sweep_tmp ~dir ());
      Alcotest.(check bool) "stale temp gone" false (Sys.file_exists stale);
      Alcotest.(check bool) "fresh temp kept" true (Sys.file_exists fresh);
      Alcotest.(check bool) "foreign file kept" true (Sys.file_exists foreign);
      Sys.remove fresh)

let arm spec =
  match Faultinject.arm_spec spec with
  | Ok () -> ()
  | Error e -> Alcotest.failf "arm %S: %s" spec e

(* An injected store failure may cost the next run its warm hit — never
   this run its already-computed result. *)
let store_failure_never_loses_result () =
  with_dir (fun dir ->
      let a = small_app () in
      arm "cache_write:1";
      let e, o =
        Fun.protect ~finally:Faultinject.disarm (fun () ->
            Cache.analyze ~cache:(dir, None) ~file:a.Corpus.name a.Corpus.source)
      in
      Alcotest.(check int) "injection fired" 1 (Faultinject.fires ());
      (match o with
      | Cache.Miss -> ()
      | _ -> Alcotest.fail "cold run must be a miss");
      (* the failed store published nothing: the rerun misses again and
         recomputes the same bytes *)
      let e2, o2 = Cache.analyze ~cache:(dir, None) ~file:a.Corpus.name a.Corpus.source in
      (match o2 with
      | Cache.Miss -> ()
      | _ -> Alcotest.fail "a failed store must not publish an entry");
      check_entry_equal "result survives the store failure" e e2)

(* An injected read failure surfaces as a Corrupt outcome naming the
   injection, the entry is recomputed (same bytes) and repaired. *)
let read_failure_is_surfaced_and_repaired () =
  with_dir (fun dir ->
      let a = small_app () in
      let cold, _ = Cache.analyze ~cache:(dir, None) ~file:a.Corpus.name a.Corpus.source in
      arm "cache_read:1";
      let warm, o =
        Fun.protect ~finally:Faultinject.disarm (fun () ->
            Cache.analyze ~cache:(dir, None) ~file:a.Corpus.name a.Corpus.source)
      in
      (match o with
      | Cache.Corrupt (Fault.Internal d) ->
          Alcotest.(check bool) "fault names the injection" true (is_infix "faultinject" d)
      | _ -> Alcotest.fail "injected read must surface as Corrupt");
      check_entry_equal "recomputed bytes identical" cold warm;
      match Cache.analyze ~cache:(dir, None) ~file:a.Corpus.name a.Corpus.source with
      | e, Cache.Hit -> check_entry_equal "repaired entry" cold e
      | _, _ -> Alcotest.fail "entry not repaired after the injected read")

(* -- fault injection: determinism and the spec grammar ------------------- *)

let tripped site =
  match Faultinject.trip site with
  | () -> false
  | exception Unix.Unix_error (Unix.EIO, "faultinject", _) -> true

let nth_fires_exactly_once () =
  arm "server_accept:3";
  let pattern =
    Fun.protect ~finally:Faultinject.disarm (fun () ->
        List.init 6 (fun _ -> tripped Faultinject.Server_accept))
  in
  Alcotest.(check (list bool))
    "only the 3rd occurrence fires"
    [ false; false; true; false; false; false ]
    pattern

let key_rule_matches_exactly () =
  arm "worker_task=CrashApp";
  Fun.protect ~finally:Faultinject.disarm (fun () ->
      let fired key =
        match Faultinject.trip ?key Faultinject.Worker_task with
        | () -> false
        | exception Unix.Unix_error (Unix.EIO, "faultinject", _) -> true
      in
      Alcotest.(check bool) "matching key fires" true (fired (Some "CrashApp"));
      Alcotest.(check bool) "matching key fires again" true (fired (Some "CrashApp"));
      Alcotest.(check bool) "other key passes" false (fired (Some "OtherApp"));
      Alcotest.(check bool) "no key passes" false (fired None))

let seeded_mode_is_deterministic () =
  let pattern seed =
    Faultinject.arm_seeded ~seed ~rate:0.25 ~sites:[ Faultinject.Server_send ] ();
    let fired = List.init 200 (fun _ -> tripped Faultinject.Server_send) in
    let n = Faultinject.fires () in
    Faultinject.disarm ();
    (fired, n)
  in
  let p1, n1 = pattern 9 in
  let p2, n2 = pattern 9 in
  Alcotest.(check (list bool)) "same seed, same fire pattern" p1 p2;
  Alcotest.(check int) "same seed, same fire count" n1 n2;
  Alcotest.(check int) "fires() counts the firings" n1
    (List.length (List.filter Fun.id p1));
  Alcotest.(check bool) "rate 0.25 over 200 trips fires some" true (n1 > 0);
  Alcotest.(check bool) "and spares some" true (n1 < 200)

let bad_specs_are_rejected () =
  List.iter
    (fun spec ->
      match Faultinject.arm_spec spec with
      | Error _ -> ()
      | Ok () ->
          Faultinject.disarm ();
          Alcotest.failf "%S must be rejected" spec)
    [
      "bogus:1";
      "cache_read:0";
      "cache_read:x";
      "rate=x";
      "sites=bogus";
      "cache_read:1:explode";
      (* an action suffix on a config entry would silently arm the
         default raise action instead of the one written *)
      "rate=0.5:kill";
      "seed=7:abort";
      "sites=cache_read:wedge";
    ];
  arm "";
  Alcotest.(check bool) "empty spec disarms" false (Faultinject.armed ())

(* -- supervised workers -------------------------------------------------- *)

let config = Pipeline.default_config

let supervised_matches_inprocess () =
  let sp = Supervise.create ~jobs:1 () in
  Fun.protect
    ~finally:(fun () -> Supervise.shutdown sp)
    (fun () ->
      List.iter
        (fun (a : Corpus.app) ->
          let direct =
            Cache.entry_of_result (Pipeline.analyze ~config ~file:a.Corpus.name a.Corpus.source)
          in
          match Supervise.analyze sp ~config ~file:a.Corpus.name a.Corpus.source with
          | Ok e -> check_entry_equal (a.Corpus.name ^ ": supervised = in-process") direct e
          | Error f -> Alcotest.failf "%s: %s" a.Corpus.name (Fault.to_string f))
        [ small_app (); zxing () ])

(* The acceptance criterion: an app that SIGKILLs its worker costs
   exactly one quarantine fault; every other app in the batch comes out
   byte-identical to an in-process run, on the same (respawned) pool. *)
let worker_crash_is_isolated_and_quarantined () =
  let a = small_app () in
  Unix.putenv Faultinject.env_var "worker_task=CrashApp:kill";
  let sp = Supervise.create ~jobs:2 () in
  Fun.protect
    ~finally:(fun () ->
      Supervise.shutdown sp;
      Unix.putenv Faultinject.env_var "")
    (fun () ->
      let direct =
        Cache.entry_of_result (Pipeline.analyze ~config ~file:a.Corpus.name a.Corpus.source)
      in
      let outcomes =
        List.map
          (fun file -> (file, Supervise.analyze sp ~config ~file a.Corpus.source))
          [ "before"; "CrashApp"; "after" ]
      in
      List.iter
        (fun (file, r) ->
          match (file, r) with
          | "CrashApp", Error (Fault.Internal d) ->
              Alcotest.(check bool) "quarantine is named" true (is_infix "quarantined" d);
              Alcotest.(check bool) "the killing signal is named" true (is_infix "SIGKILL" d)
          | "CrashApp", Ok _ -> Alcotest.fail "the crashing app must be quarantined"
          | "CrashApp", Error f ->
              Alcotest.failf "expected a quarantine, got %s" (Fault.to_string f)
          | _, Ok e -> check_entry_equal (file ^ ": unaffected by the crash") direct e
          | _, Error f -> Alcotest.failf "%s caught the blast: %s" file (Fault.to_string f))
        outcomes)

(* SIGABRT — the stand-in for a segfaulting runtime — takes the same
   quarantine path and names the signal. *)
let aborting_worker_is_quarantined () =
  let a = small_app () in
  Unix.putenv Faultinject.env_var "worker_task=AbortApp:abort";
  let sp = Supervise.create ~jobs:1 () in
  Fun.protect
    ~finally:(fun () ->
      Supervise.shutdown sp;
      Unix.putenv Faultinject.env_var "")
    (fun () ->
      (match Supervise.analyze sp ~config ~file:"AbortApp" a.Corpus.source with
      | Error (Fault.Internal d) ->
          Alcotest.(check bool) "quarantined" true (is_infix "quarantined" d);
          Alcotest.(check bool) "SIGABRT named" true (is_infix "SIGABRT" d)
      | Ok _ -> Alcotest.fail "aborting app must fault"
      | Error f -> Alcotest.failf "wrong fault: %s" (Fault.to_string f));
      match Supervise.analyze sp ~config ~file:a.Corpus.name a.Corpus.source with
      | Ok _ -> ()
      | Error f -> Alcotest.failf "pool did not recover: %s" (Fault.to_string f))

(* A worker that wedges (never answers) is bounded by the heartbeat:
   killed, replaced, the app quarantined — and the pool keeps serving. *)
let wedged_worker_hits_heartbeat () =
  let a = small_app () in
  Unix.putenv Faultinject.env_var "worker_task=WedgeApp:wedge";
  let sp = Supervise.create ~jobs:1 ~heartbeat:1.5 () in
  Fun.protect
    ~finally:(fun () ->
      Supervise.shutdown sp;
      Unix.putenv Faultinject.env_var "")
    (fun () ->
      let t0 = Clock.now () in
      (match Supervise.analyze sp ~config ~file:"WedgeApp" a.Corpus.source with
      | Error (Fault.Internal d) ->
          Alcotest.(check bool) "heartbeat timeout is named" true (is_infix "heartbeat" d)
      | Ok _ -> Alcotest.fail "wedged app must fault"
      | Error f -> Alcotest.failf "wrong fault: %s" (Fault.to_string f));
      Alcotest.(check bool)
        "bounded by the heartbeat, not the wedge" true
        (Clock.now () -. t0 < 30.0);
      match Supervise.analyze sp ~config ~file:a.Corpus.name a.Corpus.source with
      | Ok _ -> ()
      | Error f -> Alcotest.failf "pool did not recover: %s" (Fault.to_string f))

let shutdown_is_idempotent () =
  let sp = Supervise.create ~jobs:1 () in
  Supervise.shutdown sp;
  Supervise.shutdown sp;
  match Supervise.analyze sp ~config ~file:"x" "thread t { }" with
  | Error (Fault.Internal d) ->
      Alcotest.(check bool) "names the shutdown" true (is_infix "shut down" d)
  | Ok _ -> Alcotest.fail "a shut-down supervisor must fault"
  | Error f -> Alcotest.failf "wrong fault: %s" (Fault.to_string f)

(* -- client connect bound ------------------------------------------------ *)

let connect_timeout_is_bounded () =
  let missing = `Unix (Filename.concat (fresh_dir ()) "never-bound.sock") in
  let t0 = Clock.now () in
  (match Client.connect ~timeout:0.3 missing with
  | _ -> Alcotest.fail "connect to a missing socket must fail"
  | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) -> ());
  let dt = Clock.now () -. t0 in
  Alcotest.(check bool) "kept retrying until the deadline" true (dt >= 0.25);
  Alcotest.(check bool) "gave up shortly after it" true (dt < 3.0);
  let t0 = Clock.now () in
  (match Client.connect ~timeout:0.0 missing with
  | _ -> Alcotest.fail "single-attempt connect must fail"
  | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) -> ());
  Alcotest.(check bool) "timeout 0 is one attempt" true (Clock.now () -. t0 < 0.2)

(* -- supervised serve daemon --------------------------------------------- *)

let sock_path name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "nadroid-crash-%s-%d.sock" name (Unix.getpid ()))

let inline_request ~name source =
  Protocol.render_analyze
    {
      Protocol.a_path = None;
      a_source = Some source;
      a_file = Some name;
      a_k = None;
      a_sound_only = false;
      a_deadline = None;
      a_budget_pta = None;
      a_budget_tuples = None;
      a_budget_explorer = None;
      a_cache = None;
    }

(* A request that segfaults its worker answers with a quarantine fault;
   the daemon and its (respawned) worker keep serving, byte-identically. *)
let supervised_daemon_survives_crashing_request () =
  let a = small_app () in
  let sock = sock_path "supervised" in
  (try Unix.unlink sock with Unix.Unix_error _ -> ());
  Unix.putenv Faultinject.env_var "worker_task=CrashApp:kill";
  let server_config =
    {
      Server.default_config with
      Server.jobs = Some 1;
      quiet = true;
      install_signals = false;
      supervise = true;
      heartbeat = Some 60.0;
    }
  in
  let daemon = Domain.spawn (fun () -> Server.run ~config:server_config (`Unix sock)) in
  Fun.protect
    ~finally:(fun () ->
      (try
         let c = Client.connect (`Unix sock) in
         ignore (Client.request c Protocol.shutdown_request);
         Client.close c
       with _ -> ());
      Domain.join daemon;
      Unix.putenv Faultinject.env_var "")
    (fun () ->
      let c = Client.connect (`Unix sock) in
      let crash = Client.request c (inline_request ~name:"CrashApp" a.Corpus.source) in
      Alcotest.(check int) "crashing request answers a fault" 4
        (Protocol.response_exit crash);
      Alcotest.(check bool) "response names the quarantine" true
        (is_infix "quarantined" crash);
      let clean = Client.request c (inline_request ~name:a.Corpus.name a.Corpus.source) in
      Alcotest.(check string)
        "daemon still serves, byte-identical to a cold run"
        (Protocol.analyze_response ~name:a.Corpus.name
           (Fault.wrap (fun () ->
                Cache.entry_of_result
                  (Pipeline.analyze ~file:a.Corpus.name a.Corpus.source))))
        clean;
      Client.close c)

(* -- the CLI under SIGTERM and SIGKILL ----------------------------------- *)

(* the built CLI, next to this test binary in _build (cwd varies between
   `dune runtest` and `dune exec`) *)
let nadroid_exe =
  Filename.concat
    (Filename.concat (Filename.dirname Sys.executable_name) "..")
    (Filename.concat "bin" "nadroid.exe")

(* Run the real binary with a clean injection environment plus [faults];
   stdout captured, stderr discarded. *)
let run_cli ?(faults = "") args =
  let keep e =
    not
      (String.starts_with ~prefix:(Faultinject.env_var ^ "=") e
      || String.starts_with ~prefix:(Supervise.env_var ^ "=") e)
  in
  let env =
    Array.of_list
      (List.filter keep (Array.to_list (Unix.environment ()))
      @ (if faults = "" then [] else [ Faultinject.env_var ^ "=" ^ faults ]))
  in
  let out = Filename.temp_file "nadroid-crash" ".out" in
  let out_fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0o600 in
  let pid =
    Unix.create_process_env nadroid_exe
      (Array.of_list (nadroid_exe :: args))
      env Unix.stdin out_fd null
  in
  Unix.close out_fd;
  Unix.close null;
  let _, status = Unix.waitpid [] pid in
  let stdout = read_file out in
  Sys.remove out;
  (status, stdout)

(* Three corpus apps as on-disk files plus a golden uninterrupted run. *)
let with_batch f =
  with_dir (fun dir ->
      Unix.mkdir dir 0o755;
      let files =
        List.filteri (fun i _ -> i < 3) (Lazy.force Corpus.all)
        |> List.map (fun (a : Corpus.app) ->
               let p = Filename.concat dir (a.Corpus.name ^ ".mand") in
               write_file p a.Corpus.source;
               p)
      in
      let jpath = Filename.concat dir "journal" in
      let golden_status, golden =
        run_cli ([ "analyze"; "--json"; "--jobs"; "1" ] @ files)
      in
      (match golden_status with
      | Unix.WEXITED 0 -> ()
      | s -> Alcotest.failf "golden run: %s" (Supervise.status_string s));
      f ~files ~jpath ~golden)

(* SIGTERM mid-batch: files already analyzed still print and journal,
   files never started become batch faults, the exit code is the worst
   class seen — and --resume completes the batch byte-identically. *)
let sigterm_stops_batch_durably () =
  with_batch (fun ~files ~jpath ~golden ->
      let status, partial =
        run_cli ~faults:"journal_append:2:term"
          ([ "analyze"; "--json"; "--jobs"; "1"; "--journal"; jpath ] @ files)
      in
      (match status with
      | Unix.WEXITED 3 -> ()
      | s -> Alcotest.failf "SIGTERM run must exit 3 (budget), got %s" (Supervise.status_string s));
      Alcotest.(check bool) "partial report was still flushed" true
        (is_infix "\"files\":3" partial);
      Alcotest.(check bool) "skipped files are batch faults" true
        (is_infix "batch" partial && not (is_infix "\"faults\":[]" partial));
      Alcotest.(check int) "both finished apps are journaled" 2
        (List.length (Journal.replay ~path:jpath));
      let status, resumed =
        run_cli
          ([ "analyze"; "--json"; "--jobs"; "1"; "--journal"; jpath; "--resume" ] @ files)
      in
      (match status with
      | Unix.WEXITED 0 -> ()
      | s -> Alcotest.failf "resume: %s" (Supervise.status_string s));
      Alcotest.(check string) "resumed output = uninterrupted run" golden resumed)

(* SIGKILL mid-batch — no handler can run: the journal's flushed records
   survive, the half-written one is truncated away, --resume replays the
   survivors and the merged output is byte-identical. *)
let sigkill_then_resume_is_byte_identical () =
  with_batch (fun ~files ~jpath ~golden ->
      let status, _ =
        run_cli ~faults:"journal_append:2:kill"
          ([ "analyze"; "--json"; "--jobs"; "1"; "--journal"; jpath ] @ files)
      in
      (match status with
      | Unix.WSIGNALED n when n = Sys.sigkill -> ()
      | s -> Alcotest.failf "expected death by SIGKILL, got %s" (Supervise.status_string s));
      Alcotest.(check int) "the flushed record survives the kill" 1
        (List.length (Journal.replay ~path:jpath));
      let status, resumed =
        run_cli
          ([ "analyze"; "--json"; "--jobs"; "1"; "--journal"; jpath; "--resume" ] @ files)
      in
      (match status with
      | Unix.WEXITED 0 -> ()
      | s -> Alcotest.failf "resume: %s" (Supervise.status_string s));
      Alcotest.(check string) "kill + resume = uninterrupted run" golden resumed)

(* -- streamed emission vs the batch report ------------------------------- *)

(* The streamed JSON-lines are the batch report, reordered into nothing:
   concatenating the per-app lines of `--stream` inside the batch
   envelope must reproduce `--json` byte for byte — over the full
   corpus, with the stream running parallel and the batch sequential. *)
let stream_concat_equals_batch_over_corpus () =
  with_dir (fun dir ->
      Unix.mkdir dir 0o755;
      let files =
        List.map
          (fun (a : Corpus.app) ->
            let p = Filename.concat dir (a.Corpus.name ^ ".mand") in
            write_file p a.Corpus.source;
            p)
          (Lazy.force Corpus.all)
      in
      let batch_status, batch =
        run_cli ([ "analyze"; "--json"; "--jobs"; "1" ] @ files)
      in
      (match batch_status with
      | Unix.WEXITED 0 -> ()
      | s -> Alcotest.failf "batch run: %s" (Supervise.status_string s));
      let stream_status, stream =
        run_cli ([ "analyze"; "--stream"; "--jobs"; "4" ] @ files)
      in
      (match stream_status with
      | Unix.WEXITED 0 -> ()
      | s -> Alcotest.failf "stream run: %s" (Supervise.status_string s));
      let lines =
        List.filter (fun l -> l <> "") (String.split_on_char '\n' stream)
      in
      Alcotest.(check int) "one JSON line per app" (List.length files)
        (List.length lines);
      let reconstructed =
        Printf.sprintf "{\"files\":%d,\"apps\":[%s],\"faults\":[]}\n"
          (List.length files)
          (String.concat "," lines)
      in
      Alcotest.(check string) "stream lines re-wrapped = batch report" batch
        reconstructed)

(* SIGKILL mid-stream: completed lines are already on stdout and in the
   journal; --resume replays them and the full merged stream is
   byte-identical to an uninterrupted one. *)
let stream_sigkill_then_resume_is_byte_identical () =
  with_batch (fun ~files ~jpath ~golden:_ ->
      let status, golden_stream =
        run_cli ([ "analyze"; "--stream"; "--jobs"; "1" ] @ files)
      in
      (match status with
      | Unix.WEXITED 0 -> ()
      | s -> Alcotest.failf "golden stream: %s" (Supervise.status_string s));
      let status, partial =
        run_cli ~faults:"journal_append:2:kill"
          ([ "analyze"; "--stream"; "--jobs"; "1"; "--journal"; jpath ] @ files)
      in
      (match status with
      | Unix.WSIGNALED n when n = Sys.sigkill -> ()
      | s -> Alcotest.failf "expected death by SIGKILL, got %s" (Supervise.status_string s));
      (* app 1's line was flushed before the kill landed on app 2's
         journal append — streaming means the reader already has it *)
      (match String.index_opt golden_stream '\n' with
      | None -> Alcotest.fail "golden stream has no lines"
      | Some i ->
          Alcotest.(check string) "flushed prefix survives on stdout"
            (String.sub golden_stream 0 (i + 1))
            partial);
      Alcotest.(check int) "the flushed record survives in the journal" 1
        (List.length (Journal.replay ~path:jpath));
      let status, resumed =
        run_cli
          ([ "analyze"; "--stream"; "--jobs"; "1"; "--journal"; jpath; "--resume" ]
          @ files)
      in
      (match status with
      | Unix.WEXITED 0 -> ()
      | s -> Alcotest.failf "stream resume: %s" (Supervise.status_string s));
      Alcotest.(check string) "kill + resume streams identical bytes"
        golden_stream resumed)

(* -- the cache address covers the file name -------------------------------- *)

(* Byte-identical sources under two names: the report prints locations
   that contain the file name, so the second analysis through a warm
   cache must name its own file, never the first's — in process,
   supervised and through the daemon. *)
let cached_report_names_its_own_file () =
  let src = (zxing ()).Corpus.source in
  let names_only name ~not_ out =
    Alcotest.(check bool) (name ^ " is named") true (is_infix name out);
    Alcotest.(check bool) (not_ ^ " is not named") false (is_infix not_ out)
  in
  List.iter
    (fun extra ->
      with_dir (fun dir ->
          Unix.mkdir dir 0o755;
          let a = Filename.concat dir "a.mand" and b = Filename.concat dir "b.mand" in
          write_file a src;
          write_file b src;
          let run file =
            snd (run_cli ([ "analyze"; "--json"; "--cache"; "--cache-dir"; dir ] @ extra @ [ file ]))
          in
          names_only "a.mand" ~not_:"b.mand" (run a);
          names_only "b.mand" ~not_:"a.mand" (run b)))
    [ []; [ "--supervise" ] ];
  with_dir (fun dir ->
      Unix.mkdir dir 0o755;
      let sock = sock_path "cache-address" in
      (try Unix.unlink sock with Unix.Unix_error _ -> ());
      let server_config =
        {
          Server.default_config with
          Server.jobs = Some 1;
          cache_dir = dir;
          quiet = true;
          install_signals = false;
        }
      in
      let daemon = Domain.spawn (fun () -> Server.run ~config:server_config (`Unix sock)) in
      Fun.protect
        ~finally:(fun () ->
          (try
             let c = Client.connect (`Unix sock) in
             ignore (Client.request c Protocol.shutdown_request);
             Client.close c
           with _ -> ());
          Domain.join daemon)
        (fun () ->
          let c = Client.connect (`Unix sock) in
          let request name =
            Client.request c
              (Protocol.render_analyze
                 {
                   Protocol.a_path = None;
                   a_source = Some src;
                   a_file = Some name;
                   a_k = None;
                   a_sound_only = false;
                   a_deadline = None;
                   a_budget_pta = None;
                   a_budget_tuples = None;
                   a_budget_explorer = None;
                   a_cache = Some true;
                 })
          in
          names_only "a.mand" ~not_:"b.mand" (request "a.mand");
          names_only "b.mand" ~not_:"a.mand" (request "b.mand");
          Client.close c))

(* -- the batch engine ------------------------------------------------------ *)

(* Every way a batch can run yields the same entries: in process,
   supervised, cold and warm through the cache, and served from the
   journal of a finished run. *)
let batch_paths_agree () =
  let apps = Array.of_list (List.filteri (fun i _ -> i < 4) (Lazy.force Corpus.all)) in
  let inputs = Array.map (fun (a : Corpus.app) -> (a.Corpus.name, fun () -> a.Corpus.source)) apps in
  let collect ?(expect_replayed = 0) what run =
    let out = Array.make (Array.length apps) None in
    let replayed =
      run (fun i r ->
          match r with
          | Ok (e, _) -> out.(i) <- Some e
          | Error f -> Alcotest.failf "%s: %s: %s" what apps.(i).Corpus.name (Fault.to_string f))
    in
    Alcotest.(check int) (what ^ ": replayed") expect_replayed replayed;
    Array.map Option.get out
  in
  let plain = collect "in-process" (Batch.run ~jobs:2 inputs) in
  let check what entries =
    Array.iteri
      (fun i e -> check_entry_equal (what ^ ": " ^ apps.(i).Corpus.name) plain.(i) e)
      entries
  in
  check "supervised" (collect "supervised" (Batch.run ~jobs:2 ~supervise:true inputs));
  with_dir (fun dir ->
      let cached () = collect "cached" (Batch.run ~jobs:2 ~cache:(dir, None) inputs) in
      check "cold cache" (cached ());
      check "warm cache" (cached ()));
  with_dir (fun dir ->
      let journal = Filename.concat dir "journal" in
      check "journaled" (collect "journaled" (Batch.run ~journal inputs));
      check "resumed"
        (collect ~expect_replayed:(Array.length apps) "resumed"
           (Batch.run ~journal ~resume:true inputs)))

(* Failures a batch expects stay structured faults of their own app and
   are never reported as exceptions that escaped isolation: a stopped
   batch, a source that cannot be read, a journal append that fails. *)
let batch_expected_failures_are_not_escapes () =
  let apps = Array.of_list (List.filteri (fun i _ -> i < 2) (Lazy.force Corpus.all)) in
  let inputs = Array.map (fun (a : Corpus.app) -> (a.Corpus.name, fun () -> a.Corpus.source)) apps in
  let collect run =
    let out = Array.make (Array.length inputs) None in
    ignore (run (fun i r -> out.(i) <- Some r));
    Array.map Option.get out
  in
  let not_escaped what = function
    | Error f when Batch.escaped f -> Alcotest.failf "%s: escaped: %s" what (Fault.to_string f)
    | _ -> ()
  in
  Array.iter
    (fun r ->
      not_escaped "stopped" r;
      match r with
      | Error (Fault.Budget Fault.P_batch) -> ()
      | _ -> Alcotest.fail "stopped batch: expected a batch-budget fault")
    (collect (Batch.run ~stop:(Atomic.make true) inputs));
  let unreadable = Array.copy inputs in
  unreadable.(0) <- ("missing.mand", fun () -> raise (Sys_error "missing.mand: no such file"));
  (match collect (Batch.run unreadable) with
  | [| (Error _ as r0); Ok _ |] -> not_escaped "unreadable source" r0
  | _ -> Alcotest.fail "unreadable source: expected its own fault and the other app Ok");
  with_dir (fun dir ->
      let journal = Filename.concat dir "journal" in
      let lost = ref [] in
      (match Faultinject.arm_spec "journal_append:1" with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
      let results =
        Fun.protect ~finally:Faultinject.disarm (fun () ->
            collect (Batch.run ~journal ~on_journal_error:(fun n _ -> lost := n :: !lost) inputs))
      in
      Array.iter (fun r -> if Result.is_error r then Alcotest.fail "append failure cost a result") results;
      Alcotest.(check int) "one lost record reported" 1 (List.length !lost);
      Alcotest.(check int) "one record journaled" 1 (List.length (Journal.replay ~path:journal)))

(* -- blast-radius fuzzing ------------------------------------------------ *)

let faultfuzz_smoke () =
  let s = Faultfuzz.run ~jobs:2 ~apps:3 ~seed:7 ~trials:2 () in
  Alcotest.(check int) "both trials ran" 2 s.Faultfuzz.fz_trials;
  match s.Faultfuzz.fz_escapes with
  | [] -> ()
  | x :: _ ->
      Alcotest.failf "blast-radius escape: trial %d (%s) %s: %s" x.Faultfuzz.x_trial
        x.Faultfuzz.x_mode x.Faultfuzz.x_app x.Faultfuzz.x_what

let suite =
  [
    ( "crash-journal",
      [
        Alcotest.test_case "append / replay round-trips, last record wins" `Quick
          journal_roundtrip;
        Alcotest.test_case "truncated tail replays the valid prefix" `Quick
          (journal_damage_bounds_replay truncated_tail);
        Alcotest.test_case "bit-flipped record bounds the replay" `Quick
          (journal_damage_bounds_replay flipped_byte);
        Alcotest.test_case "absent or garbage journal replays empty" `Quick
          journal_absent_or_garbage_is_empty;
        Alcotest.test_case "seeded frame damage: journal replays a prefix" `Quick
          journal_scan_survives_mutations;
        Alcotest.test_case "seeded frame damage: pipe reader fails structurally" `Quick
          frame_read_survives_mutations;
      ] );
    ( "crash-cache",
      [
        Alcotest.test_case "orphaned temp files are swept on open" `Quick
          sweep_removes_only_stale_tmp;
        Alcotest.test_case "injected store failure never loses the result" `Quick
          store_failure_never_loses_result;
        Alcotest.test_case "injected read failure surfaces and repairs" `Quick
          read_failure_is_surfaced_and_repaired;
      ] );
    ( "crash-inject",
      [
        Alcotest.test_case "nth-occurrence rule fires exactly once" `Quick
          nth_fires_exactly_once;
        Alcotest.test_case "key rule fires on its key only" `Quick
          key_rule_matches_exactly;
        Alcotest.test_case "seeded mode is deterministic per seed" `Quick
          seeded_mode_is_deterministic;
        Alcotest.test_case "malformed specs are rejected" `Quick bad_specs_are_rejected;
      ] );
    ( "crash-supervise",
      [
        Alcotest.test_case "supervised analysis = in-process, byte for byte" `Quick
          supervised_matches_inprocess;
        Alcotest.test_case "SIGKILLed worker costs one quarantine, batch unharmed" `Quick
          worker_crash_is_isolated_and_quarantined;
        Alcotest.test_case "SIGABRT (segfault stand-in) is quarantined" `Quick
          aborting_worker_is_quarantined;
        Alcotest.test_case "wedged worker is bounded by the heartbeat" `Quick
          wedged_worker_hits_heartbeat;
        Alcotest.test_case "shutdown is idempotent and faults later calls" `Quick
          shutdown_is_idempotent;
      ] );
    ( "crash-client",
      [
        Alcotest.test_case "connect retries with backoff until --connect-timeout" `Quick
          connect_timeout_is_bounded;
      ] );
    ( "crash-serve",
      [
        Alcotest.test_case "supervised daemon survives a crashing request" `Quick
          supervised_daemon_survives_crashing_request;
      ] );
    ( "crash-cli",
      [
        Alcotest.test_case "SIGTERM mid-batch: durable journal, worst-class exit" `Quick
          sigterm_stops_batch_durably;
        Alcotest.test_case "kill -9 then --resume is byte-identical" `Quick
          sigkill_then_resume_is_byte_identical;
        Alcotest.test_case "--stream lines re-wrapped = --json batch, full corpus" `Quick
          stream_concat_equals_batch_over_corpus;
        Alcotest.test_case "kill -9 mid-stream then --resume is byte-identical" `Quick
          stream_sigkill_then_resume_is_byte_identical;
      ] );
    ( "crash-cache-address",
      [
        Alcotest.test_case "two names, one source: each report names its own file" `Quick
          cached_report_names_its_own_file;
      ] );
    ( "crash-batch",
      [
        Alcotest.test_case "in-process = supervised = cached = resumed entries" `Quick
          batch_paths_agree;
        Alcotest.test_case "expected failures are faults, not escapes" `Quick
          batch_expected_failures_are_not_escapes;
      ] );
    ( "crash-fuzz",
      [ Alcotest.test_case "seeded fuzz over all seams: 0 escapes" `Quick faultfuzz_smoke ]
    );
  ]
