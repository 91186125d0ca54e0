(* Golden-report regression over the 27-app corpus.

   Each corpus app has a committed canonical report
   (test/golden/<name>.expected): pipeline counts plus the rendered
   warning report under the default configuration. [check] re-analyzes
   the corpus and fails on any byte drift — the tripwire every future
   perf or refactor PR runs against; [bless] regenerates the files
   (byte-identical on a second run, since the pipeline and the report
   renderer are deterministic). *)

module Fault = Nadroid_core.Fault
module Cache = Nadroid_core.Cache
module Batch = Nadroid_core.Batch

let canonical_of_entry (app : Corpus.app) (e : Cache.entry) : string =
  Printf.sprintf "app: %s\npotential: %d\nafter-sound: %d\nafter-unsound: %d\n\n%s"
    app.Corpus.name e.Cache.e_potential e.Cache.e_after_sound e.Cache.e_after_unsound
    e.Cache.e_report

let filename (app : Corpus.app) = app.Corpus.name ^ ".expected"

(* Canonical report for every corpus app; a corpus app failing to
   analyze is itself a regression, surfaced as the fault. With
   [cache_dir] the reports are served through the analysis cache — the
   entry stores the same counts and rendered report the direct path
   prints, so a warm pass is byte-identical to a cold one (the CI
   cold-then-warm gate). *)
let render_all ?jobs ?cache_dir () : (Corpus.app * string) list =
  let apps = Array.of_list (Lazy.force Corpus.all) in
  let out = Array.make (Array.length apps) "" in
  ignore
    (Batch.run ?jobs
       ?cache:(Option.map (fun dir -> (dir, None)) cache_dir)
       (Array.map (fun (a : Corpus.app) -> (a.Corpus.name, fun () -> a.Corpus.source)) apps)
       (fun i r ->
         match r with
         | Ok (e, _outcome) -> out.(i) <- canonical_of_entry apps.(i) e
         | Error f -> raise (Fault.Fault f)));
  List.combine (Array.to_list apps) (Array.to_list out)

type status =
  | G_ok
  | G_missing  (** no committed .expected file *)
  | G_drift of { line : int; expected : string; actual : string }
      (** first differing line (1-based; [""] = past end of file) *)

let first_diff expected actual : (int * string * string) option =
  let e = String.split_on_char '\n' expected and a = String.split_on_char '\n' actual in
  let rec go i = function
    | [], [] -> None
    | x :: xs, y :: ys -> if String.equal x y then go (i + 1) (xs, ys) else Some (i, x, y)
    | x :: _, [] -> Some (i, x, "")
    | [], y :: _ -> Some (i, "", y)
  in
  go 1 (e, a)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let check ~dir ?jobs ?cache_dir () : (string * status) list =
  List.map
    (fun ((app : Corpus.app), actual) ->
      let path = Filename.concat dir (filename app) in
      if not (Sys.file_exists path) then (app.Corpus.name, G_missing)
      else
        let expected = read_file path in
        match first_diff expected actual with
        | None -> (app.Corpus.name, G_ok)
        | Some (line, e, a) -> (app.Corpus.name, G_drift { line; expected = e; actual = a }))
    (render_all ?jobs ?cache_dir ())

let ok results = List.for_all (fun (_, s) -> s = G_ok) results

let bless ~dir ?jobs () : int =
  let rendered = render_all ?jobs () in
  List.iter
    (fun ((app : Corpus.app), actual) ->
      let path = Filename.concat dir (filename app) in
      let oc = open_out_bin path in
      Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc actual))
    rendered;
  List.length rendered

let pp_status ppf (name, s) =
  match s with
  | G_ok -> Fmt.pf ppf "ok       %s" name
  | G_missing -> Fmt.pf ppf "MISSING  %s (run with --bless to create)" name
  | G_drift { line; expected; actual } ->
      Fmt.pf ppf "DRIFT    %s at line %d:@\n  expected: %s@\n  actual:   %s" name line expected
        actual
