open Cora

type counters = (string * int) list

type response = {
  model_ns : float;
  kernels_ns : float;
  prelude_host_ns : float;
  prelude_copy_ns : float;
  compile_hits : int;
  compile_misses : int;
  prelude_hit : bool;
  engine_hits : int;
  engine_misses : int;
  arena_hits : int;
  arena_misses : int;
  tables_hex : string;
  tuner : string;
  tune_us : float;
  stages_us : (string * float) list;
  counters : counters option;
  out : float array option;
  checksum : float;
}

type t = {
  device : Machine.Device.t;
  cache : bool;
  execute : bool;
  engine : Exec.engine;
  opt : Ir.Optimize.level;
  autotune : Autotune.Tuner.cfg option;
  key_prefix : string;
}

(* A plan key names what a plan depends on besides its workload instance
   (whose own memo holds it) and the raggedness vector appended per
   request: the serving mode, the engine and opt level its kernels are
   compiled for, and the device its launch model is priced on — so a
   front end's degraded [`Interp] twin never reads a compiled plan. *)
let make ~device ~cache ~execute ~engine ~opt ~autotune =
  let key_prefix =
    String.concat "|"
      [
        (if autotune = None then "hand" else "auto");
        Exec.engine_name engine;
        Ir.Optimize.level_name opt;
        device.Machine.Device.name;
      ]
  in
  { device; cache; execute; engine; opt; autotune; key_prefix }

let create ?(device = Machine.Device.v100) ?(cache = true) ?(execute = true)
    ?(engine = `Interp) ?(opt = Ir.Optimize.O0) ?autotune () : t =
  make ~device ~cache ~execute ~engine ~opt ~autotune

let engine t = t.engine
let opt_level t = t.opt
let autotune_enabled t = t.autotune <> None

let with_engine t engine =
  make ~device:t.device ~cache:t.cache ~execute:t.execute ~engine ~opt:t.opt
    ~autotune:t.autotune

let reset_caches () =
  Lower.clear_memo ();
  Exec.clear_engine_memo ();
  Autotune.Tuner.clear ();
  Workload.clear_caches ()

let default_fill name idx =
  let h =
    List.fold_left
      (fun acc i -> ((acc * 31) + i + 1) land 0xFFFFFF)
      (Hashtbl.hash name land 0xFFFF)
      idx
  in
  (float_of_int (h mod 1009) /. 504.5) -. 1.0

(* Execute the plan's kernels through the selected engine.

   Cached kernels reference the tensor objects of whichever build first
   produced them, while uncached kernels of the same job (e.g. the
   hand-assembled softmax) reference this build's — so buffers are
   allocated per tensor *name* and bound to every instance.  Instances
   sharing a name are structurally identical (that is what made the
   compile key match), hence lay out identically under [job.lenv].

   Tensor storage comes from the process-wide {!Runtime.Buffer.Arena},
   rounded up to power-of-two size classes, and is released once the
   output has been unpacked (which copies) — so a steady-state request
   stream allocates no fresh float arrays after its working set of size
   classes is populated.  Acquired arrays are zero-filled, preserving the
   [Array.make]-fresh semantics (including zeroed padding) the kernels
   rely on; the extra class-rounding tail beyond the tensor's size is
   never addressed by a correct kernel. *)
let execute ?(fill = default_fill) (srv : t) (plan : Workload.plan) :
    counters option * float array * int * int =
  let job = plan.Workload.job in
  let arena = Runtime.Buffer.Arena.global in
  let arena_hits = ref 0 and arena_misses = ref 0 in
  let raggeds : (string, Ragged.t) Hashtbl.t = Hashtbl.create 16 in
  let bound : (Ir.Var.t, unit) Hashtbl.t = Hashtbl.create 32 in
  let written : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (k : Lower.kernel) -> Hashtbl.replace written k.Lower.out.Tensor.name ())
    job.Workload.kernels;
  let bindings = ref [] in
  let note (t : Tensor.t) =
    if not (Hashtbl.mem bound t.Tensor.buf) then begin
      Hashtbl.add bound t.Tensor.buf ();
      let r =
        match Hashtbl.find_opt raggeds t.Tensor.name with
        | Some r -> r
        | None ->
            let n = Tensor.size_elems t ~lenv:job.Workload.lenv in
            let a, recycled = Runtime.Buffer.Arena.acquire_class_counted arena n in
            if recycled then incr arena_hits else incr arena_misses;
            let r =
              {
                Ragged.tensor = t;
                buf = Runtime.Buffer.of_floats a;
                lenv = job.Workload.lenv;
                prefix_cache = Ragged.fresh_prefix_cache t;
              }
            in
            Hashtbl.add raggeds t.Tensor.name r;
            r
      in
      bindings := (t, r.Ragged.buf) :: !bindings
    end
  in
  Fun.protect ~finally:(fun () ->
      Hashtbl.iter
        (fun _ (r : Ragged.t) ->
          Runtime.Buffer.Arena.release arena (Runtime.Buffer.floats r.Ragged.buf))
        raggeds)
  @@ fun () ->
  List.iter
    (fun (k : Lower.kernel) ->
      note k.Lower.out;
      List.iter note k.Lower.reads)
    job.Workload.kernels;
  (* deterministic inputs: tensors read but never written *)
  Hashtbl.iter
    (fun name r -> if not (Hashtbl.mem written name) then Ragged.fill r (fill name))
    raggeds;
  let env, _ =
    Exec.run ~engine:srv.engine ~opt:srv.opt
      ~prelude:plan.Workload.built ?compiled:plan.Workload.compiled ~lenv:job.Workload.lenv
      ~bindings:!bindings job.Workload.kernels
  in
  let out =
    match Hashtbl.find_opt raggeds job.Workload.out_name with
    | Some r -> Ragged.unpack r
    | None -> invalid_arg ("serving: no tensor named " ^ job.Workload.out_name)
  in
  (* An output over 256 words (Max_young_wosize) is allocated straight
     into the major heap, whose collection OCaml paces by allocation
     relative to heap size.  The arena's long-lived tensor buffers
     dominate that heap, so a cycle spans ~150 encoder requests and the
     dead outputs pile up meanwhile (+0.15 MB per request).  Paying back
     4 words of major-GC work per output word reclaims them about as fast
     as requests make them. *)
  if Array.length out > 256 then ignore (Gc.major_slice (4 * Array.length out));
  (Option.map Runtime.Interp.stats env, out, !arena_hits, !arena_misses)

(* ---- plan building (a miss) ---- *)

let defs_of (job : Workload.job) =
  List.concat_map (fun (k : Lower.kernel) -> k.Lower.aux) job.Workload.kernels

(* The job's kernels compiled through the engine memo (compiled engine
   only), with the memo's hits and misses among them. *)
let compile_job srv (job : Workload.job) =
  match srv.engine with
  | `Interp -> (None, 0, 0)
  | `Compiled ->
      let cs = List.map (Exec.compile_cached ~opt:srv.opt) job.Workload.kernels in
      let hits = List.length (List.filter snd cs) in
      (Some (List.map fst cs), hits, List.length cs - hits)

let delta_c = Obs.Metrics.counter "plan.delta"

(* An autoregressive workload delta-updates its prelude from the
   predecessor step's plan, found by one lookup of the predecessor's key;
   a delta result is bitwise a fresh build, so any other shape simply
   builds from scratch. *)
let prelude_of srv (w : Workload.t) ~key_of lens (job : Workload.job) =
  let prev =
    match w.Workload.prev_lens with
    | Some f when srv.cache ->
        Option.bind (f lens) (fun pl -> Cache.find w.Workload.job_cache (key_of pl))
    | _ -> None
  in
  match prev with
  | Some (p : Workload.plan) ->
      Obs.Metrics.incr delta_c;
      Prelude.delta_update ~prev:p.Workload.built ~old_lenv:p.Workload.job.Workload.lenv
        (defs_of job) job.Workload.lenv
  | None -> Prelude.build ~dedup_defs:true (defs_of job) job.Workload.lenv

(* Model time: the launches are timed against the plan's prelude (no
   rebuild inside the pipeline). *)
let plan_of srv ~job ~tuner ~compiled built =
  {
    Workload.job;
    tuner;
    tables_hex = Sig.to_hex (Sig.of_tables job.Workload.tables);
    built;
    pipeline =
      Machine.Launch.pipeline ~engine:srv.engine ~opt:srv.opt ~prelude:built
        ~device:srv.device ~lenv:job.Workload.lenv job.Workload.launches;
    compiled;
  }

(* What the compile stage of a plan miss produces: the job with its
   compiled kernels, the tuner's verdict, the tune still owed (a true
   tuner miss), and the memo lookups it took. *)
type miss = {
  m_job : Workload.job;
  m_tuner : string;
  m_compiled : Runtime.Engine.compiled list option;
  m_pending : (Autotune.Tuner.cfg * Workload.tunable * Sig.t) option;
  m_memo : Lower.memo_stats;
  m_engine_hits : int;
  m_engine_misses : int;
}

let lower srv (w : Workload.t) lens : miss =
  let build f =
    Lower.with_memo ~cache:srv.cache (fun () -> Obs.Span.with_span "serve.compile" f)
  in
  let (job, memo), tuner, pending =
    match (srv.autotune, w.Workload.tunable) with
    | Some cfg, Some tn -> (
        let key =
          Autotune.Tuner.key ~workload:w.Workload.name ~tables:(tn.Workload.tables_of lens)
            ~opt:srv.opt
        in
        match Autotune.Tuner.lookup key with
        | Some { Autotune.Tuner.point = Some p; _ } ->
            (build (fun () -> tn.Workload.build_tuned p lens), "tuned", None)
        | Some _ -> (build (fun () -> w.Workload.build lens), "hand", None)
        (* serve the hand schedule now; tune after the response *)
        | None -> (build (fun () -> w.Workload.build lens), "miss", Some (cfg, tn, key)))
    | _ -> (build (fun () -> w.Workload.build lens), "off", None)
  in
  let compiled, hits, misses = compile_job srv job in
  {
    m_job = job;
    m_tuner = tuner;
    m_compiled = compiled;
    m_pending = pending;
    m_memo = memo;
    m_engine_hits = hits;
    m_engine_misses = misses;
  }

(* Modelled request time, not a wall-clock latency; the handle is held
   here so a request never takes the registry's lock to find it. *)
let model_ns_h = Obs.Metrics.histogram "serve.model_ns"

let handle ?(stage_check = fun (_ : string) -> ()) ?fill (srv : t) (w : Workload.t)
    (lens : int array) : response =
  Obs.Span.with_span
    ~attrs:[ ("workload", Obs.Trace_sink.Str w.Workload.name) ]
    "serve.request"
  @@ fun () ->
  let stages = ref [] in
  let staged name f =
    stage_check name;
    let t0 = Obs.Trace_sink.now_us () in
    let v = f () in
    stages := (name, Obs.Trace_sink.now_us () -. t0) :: !stages;
    v
  in
  let key_of ls =
    let b = Buffer.create 64 in
    Buffer.add_string b srv.key_prefix;
    Array.iter
      (fun l ->
        Buffer.add_char b '|';
        Buffer.add_string b (string_of_int l))
      ls;
    Buffer.contents b
  in
  let key = key_of lens in
  (* A hit is one lookup: the prelude and launch stages have nothing
     left to do.  A miss builds the plan stage by stage and memoizes it —
     unless a tune is owed, which inserts the winner's plan instead. *)
  let found =
    staged "compile" @@ fun () ->
    match if srv.cache then Cache.find w.Workload.job_cache key else None with
    | Some p -> `Hit p
    | None -> `Miss (lower srv w lens)
  in
  let plan, miss =
    match found with
    | `Hit p ->
        staged "prelude" ignore;
        staged "launch" ignore;
        (p, None)
    | `Miss m ->
        let built =
          staged "prelude" @@ fun () ->
          Obs.Span.with_span "serve.prelude" (fun () -> prelude_of srv w ~key_of lens m.m_job)
        in
        let p =
          staged "launch" @@ fun () ->
          plan_of srv ~job:m.m_job ~tuner:m.m_tuner ~compiled:m.m_compiled built
        in
        if srv.cache && Option.is_none m.m_pending then Cache.add w.Workload.job_cache key p;
        (p, Some m)
  in
  let job = plan.Workload.job in
  let hit = Option.is_none miss in
  let nk = List.length job.Workload.kernels in
  let compile_hits, compile_misses, engine_hits, engine_misses =
    match miss with
    | None -> (nk, 0, (if Option.is_none plan.Workload.compiled then 0 else nk), 0)
    | Some m -> (m.m_memo.Lower.hits, m.m_memo.Lower.misses, m.m_engine_hits, m.m_engine_misses)
  in
  (* the prelude's host build and copy are charged only to the request
     that built it *)
  let prelude_host_ns, prelude_copy_ns =
    if hit then (0.0, 0.0)
    else Machine.Launch.prelude_cost ~device:srv.device plan.Workload.built
  in
  let kernels_ns = plan.Workload.pipeline.Machine.Launch.kernels_ns in
  let model_ns = kernels_ns +. prelude_host_ns +. prelude_copy_ns in
  let counters, out, arena_hits, arena_misses =
    staged "execute" @@ fun () ->
    if srv.execute then
      let c, o, ah, am =
        Obs.Span.with_span "serve.execute" (fun () -> execute ?fill srv plan)
      in
      (c, Some o, ah, am)
    else (None, None, 0, 0)
  in
  let checksum = match out with None -> 0.0 | Some a -> Array.fold_left ( +. ) 0.0 a in
  (* Warm the tuner memo *after* the staged pipeline — the response above
     was served from the hand schedule — and memoize the winner's plan,
     so the next request with this shape serves it with one lookup. *)
  let tune_us =
    match miss with
    | Some { m_pending = Some (cfg, tn, tkey); _ } ->
        Autotune.Tuner.note_fallback ();
        let t0 = Obs.Trace_sink.now_us () in
        let tjob (j : Workload.job) =
          {
            Autotune.Tuner.kernels = j.Workload.kernels;
            launches = j.Workload.launches;
            lenv = j.Workload.lenv;
          }
        in
        let candidates =
          List.map
            (fun p -> (p, fun () -> tjob (tn.Workload.build_tuned p lens)))
            (tn.Workload.space lens)
        in
        let d, _ =
          Lower.with_memo ~cache:srv.cache (fun () ->
              Autotune.Tuner.tune ~cfg ~device:srv.device ~key:tkey ~hand:(tjob job)
                ~candidates ())
        in
        (if srv.cache then
           let winner =
             match d.Autotune.Tuner.point with
             | None -> { plan with Workload.tuner = "hand" }
             | Some p ->
                 let tuned, _ =
                   Lower.with_memo ~cache:true (fun () -> tn.Workload.build_tuned p lens)
                 in
                 let compiled, _, _ = compile_job srv tuned in
                 plan_of srv ~job:tuned ~tuner:"tuned" ~compiled
                   (prelude_of srv w ~key_of lens tuned)
           in
           Cache.add w.Workload.job_cache key winner);
        Obs.Trace_sink.now_us () -. t0
    | _ -> 0.0
  in
  Obs.Metrics.observe model_ns_h model_ns;
  Obs.Span.add_attr "model_ns" (Obs.Trace_sink.Float model_ns);
  Obs.Span.add_attr "compile_hits" (Obs.Trace_sink.Int compile_hits);
  Obs.Span.add_attr "prelude_hit" (Obs.Trace_sink.Str (if hit then "yes" else "no"));
  Obs.Span.add_attr "sig" (Obs.Trace_sink.Str plan.Workload.tables_hex);
  {
    model_ns;
    kernels_ns;
    prelude_host_ns;
    prelude_copy_ns;
    compile_hits;
    compile_misses;
    prelude_hit = hit;
    engine_hits;
    engine_misses;
    arena_hits;
    arena_misses;
    tables_hex = plan.Workload.tables_hex;
    tuner = plan.Workload.tuner;
    tune_us;
    stages_us = List.rev !stages;
    counters;
    out;
    checksum;
  }

(* ---- serving with deadlines, fault isolation and degradation ---- *)

type outcome =
  | Response of response
  | Overloaded
  | Deadline_exceeded of string
  | Error of { exn : string; backtrace : string }

(* Raised by [serve]'s stage check; never escapes [serve]. *)
exception Expired of string

let degraded_c = Obs.Metrics.counter "frontend.degraded"

let serve ?fallback ?fill ~deadline_us (srv : t) (w : Workload.t) (lens : int array) : outcome =
  let stage_check stage = if Obs.Trace_sink.now_us () > deadline_us then raise (Expired stage) in
  let attempt srv = Response (handle ~stage_check ?fill srv w lens) in
  match
    try attempt srv
    with Runtime.Engine.Error _ when Option.is_some fallback ->
      (* graceful degradation: the compiled engine rejected a kernel —
         retry once on the interpreter twin before giving up *)
      Obs.Metrics.incr degraded_c;
      attempt (Option.get fallback)
  with
  | o -> o
  | exception Expired stage -> Deadline_exceeded stage
  | exception e ->
      let backtrace = Printexc.get_backtrace () in
      Error { exn = Printexc.to_string e; backtrace }
