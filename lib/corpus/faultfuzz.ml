(* Blast-radius fuzzing: prove injected faults stay contained.

   Each trial arms the seeded fault-injection registry over one group of
   seams and runs a corpus batch through the full crash-survival stack —
   in-process trials exercise the cache and journal seams (twice, cold
   then warm, so both the store and the read/corruption paths see
   faults); supervised trials exercise the worker spawn/pipe seams with
   the analyses in child processes. Afterwards every app's outcome must
   be one of exactly two things:

   - byte-identical to the clean baseline (report and counts), or
   - a structured fault visibly caused by the machinery under test
     (its detail mentions the injection, a quarantine, or a worker).

   Anything else — a silently wrong report, an unexplained fault class,
   an exception escaping the crash-isolation wrapper, a journal whose
   valid prefix no longer parses — is a blast-radius escape: evidence
   that an injected fault leaked outside the app it hit. The driver
   reports all escapes; `nadroid faultfuzz` exits 4 when there are any,
   which is the CI gate. *)

module Fault = Nadroid_core.Fault
module Cache = Nadroid_core.Cache
module Journal = Nadroid_core.Journal
module Faultinject = Nadroid_core.Faultinject
module Pipeline = Nadroid_core.Pipeline
module Batch = Nadroid_core.Batch

type escape = {
  x_trial : int;
  x_mode : string;
  x_app : string;
  x_what : string;
}

type summary = {
  fz_trials : int;
  fz_fires : int;  (** injected faults that actually fired *)
  fz_faulted : int;  (** app entries that became structured faults *)
  fz_clean : int;  (** app entries byte-identical to the baseline *)
  fz_escapes : escape list;
}

(* A fault is attributable to the injection machinery when its detail
   names the injection site, a quarantine, or the worker plumbing. *)
let injected_fault (f : Fault.t) =
  let d = Fault.detail f in
  List.exists
    (fun affix -> Astring.String.is_infix ~affix d)
    [ "faultinject"; "quarantined"; "worker"; "supervisor" ]

let inproc_sites =
  [
    Faultinject.Cache_read;
    Faultinject.Cache_write;
    Faultinject.Cache_rename;
    Faultinject.Journal_append;
  ]

let supervised_sites = [ Faultinject.Worker_spawn; Faultinject.Worker_pipe_read ]

let rm_rf dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> ()
  | names ->
      Array.iter
        (fun n -> try Sys.remove (Filename.concat dir n) with Sys_error _ -> ())
        names;
      (try Unix.rmdir dir with Unix.Unix_error _ -> ())

let run ?(jobs = 2) ?(apps = 8) ~seed ~trials () : summary =
  ignore (Lazy.force Nadroid_lang.Builtins.program);
  let corpus =
    List.filteri (fun i _ -> i < apps) (Lazy.force Corpus.all)
  in
  let config = Pipeline.default_config in
  (* clean baseline: what every app must still produce when it is not
     the one a fault landed on *)
  let baseline : (string, Cache.entry) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun ((app : Corpus.app), r) ->
      match r with
      | Ok t -> Hashtbl.replace baseline app.Corpus.name (Cache.entry_of_result t)
      | Error f ->
          invalid_arg
            (Printf.sprintf "faultfuzz: baseline analysis of %s failed: %s"
               app.Corpus.name (Fault.to_string f)))
    (Corpus.analyze_all ~config ~jobs corpus);
  let escapes = ref [] in
  let fires = ref 0 and faulted = ref 0 and clean = ref 0 in
  (* journal appends fail inside the tasks, on any domain *)
  let escape_m = Mutex.create () in
  let escape trial mode app what =
    Mutex.protect escape_m (fun () ->
        escapes := { x_trial = trial; x_mode = mode; x_app = app; x_what = what } :: !escapes)
  in
  let entry_matches (e : Cache.entry) (b : Cache.entry) =
    String.equal e.Cache.e_report b.Cache.e_report
    && e.Cache.e_potential = b.Cache.e_potential
    && e.Cache.e_after_sound = b.Cache.e_after_sound
    && e.Cache.e_after_unsound = b.Cache.e_after_unsound
  in
  let judge trial mode (app : Corpus.app) (r : Batch.result) =
    match r with
    | Ok (entry, _) ->
        if entry_matches entry (Hashtbl.find baseline app.Corpus.name) then
          incr clean
        else
          escape trial mode app.Corpus.name
            "result differs from the clean baseline"
    | Error f when Batch.escaped f ->
        (* an exception got past the isolation wrappers — even an
           injected one: that is exactly the leak this fuzzer hunts *)
        escape trial mode app.Corpus.name (Fault.detail f)
    | Error f ->
        incr faulted;
        if not (injected_fault f) then
          escape trial mode app.Corpus.name
            ("fault not attributable to injection: " ^ Fault.to_string f)
  in
  let on_journal_error trial mode app f =
    if not (injected_fault f) then
      escape trial mode app ("journal append failed: " ^ Fault.to_string f)
  in
  let batch = Array.of_list corpus in
  let inputs =
    Array.map (fun (a : Corpus.app) -> (a.Corpus.name, fun () -> a.Corpus.source)) batch
  in
  for trial = 0 to trials - 1 do
    let supervised = trial land 1 = 1 in
    let mode = if supervised then "supervised" else "inproc" in
    let dir =
      Filename.concat Cache.default_dir
        (Printf.sprintf "fuzz.%d.%d" (Unix.getpid ()) trial)
    in
    let jpath pass = Filename.concat dir (Printf.sprintf "journal.%d" pass) in
    Faultinject.arm_seeded ~seed:(seed + trial) ~rate:0.08
      ~sites:(if supervised then supervised_sites else inproc_sites)
      ();
    let passes = if supervised then 1 else 2 in
    for pass = 1 to passes do
      (* in-process trials run twice over the same cache dir: the cold
         pass hits the write/rename seams, the warm pass the read seam —
         and a cache under fire must still never serve wrong bytes.
         Supervisors are created inside the batch, after arming, so even
         the initial spawns face fire. A journal append may be the
         injected failure itself; that costs resume coverage, never the
         result. Each pass keeps its own journal: opening one without
         resume truncates it. *)
      ignore
        (Batch.run ~jobs ~supervise:supervised
           ?cache:(if supervised then None else Some (dir, None))
           ~journal:(jpath pass) ~on_journal_error:(on_journal_error trial mode) ~config
           inputs
           (fun i r -> judge trial mode batch.(i) r))
    done;
    Faultinject.disarm ();
    fires := !fires + Faultinject.fires ();
    (* whatever the injections did, each journal's valid prefix must
       still replay: records are either whole or truncated, never lies *)
    for pass = 1 to passes do
      match Journal.replay ~path:(jpath pass) with
      | _records -> ()
      | exception e ->
          escape trial mode "<journal>" ("replay raised: " ^ Printexc.to_string e)
    done;
    rm_rf dir
  done;
  {
    fz_trials = trials;
    fz_fires = !fires;
    fz_faulted = !faulted;
    fz_clean = !clean;
    fz_escapes = List.rev !escapes;
  }

let pp_summary ppf s =
  Fmt.pf ppf "faultfuzz: %d trials, %d injected faults fired@." s.fz_trials
    s.fz_fires;
  Fmt.pf ppf "  app outcomes: %d clean (identical to baseline), %d faulted@."
    s.fz_clean s.fz_faulted;
  if s.fz_escapes = [] then Fmt.pf ppf "  blast-radius escapes: 0@."
  else begin
    Fmt.pf ppf "  blast-radius escapes: %d@." (List.length s.fz_escapes);
    List.iter
      (fun x ->
        Fmt.pf ppf "    trial %d (%s) %s: %s@." x.x_trial x.x_mode x.x_app
          x.x_what)
      s.fz_escapes
  end
