(* The traced replay: one request's pipeline re-run from the benchmark's own
   code as a sequence of timed calls into the library's public functions —
   the same calls [Serving.Server.handle] makes, in the same order — so each
   layer's wall time is attributed without instrumenting the library. *)

open Cora
module W = Serving.Workload

let time f =
  let t0 = Host.now () in
  let v = f () in
  (v, (Host.now () -. t0) *. 1e6)

type t = {
  build_us : float;  (** job construction, compile memo on *)
  of_tables_us : float;  (** raggedness signature of the length tables *)
  of_stmt_us : float;  (** structural signatures of every kernel body *)
  prelude_build_us : float;  (** from-scratch prelude build *)
  prelude_delta_us : float;  (** delta update from the predecessor; nan when none *)
  launch_us : float;  (** uncached launch-model evaluation *)
  fill_us : float;  (** buffer binding and input fill *)
  run_us : float;  (** one [Exec.run] over all kernels *)
  unpack_us : float;  (** dense output unpack *)
  kernel_us : (string * float) list;  (** one [Exec.run] per kernel, execution order *)
  checksum : float;  (** sum of the unpacked output *)
  built : Prelude.built;
  lenv : Lenfun.env;
}

let defs_of (job : W.job) = List.concat_map (fun (k : Lower.kernel) -> k.Lower.aux) job.W.kernels

(* Bind every tensor of the job to arena storage by name and fill the
   inputs, as the serving path does. *)
let bind (job : W.job) =
  let arena = Runtime.Buffer.Arena.global in
  let raggeds : (string, Ragged.t) Hashtbl.t = Hashtbl.create 16 in
  let bound : (Ir.Var.t, unit) Hashtbl.t = Hashtbl.create 32 in
  let written : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (k : Lower.kernel) -> Hashtbl.replace written k.Lower.out.Tensor.name ())
    job.W.kernels;
  let bindings = ref [] in
  let note (t : Tensor.t) =
    if not (Hashtbl.mem bound t.Tensor.buf) then begin
      Hashtbl.add bound t.Tensor.buf ();
      let r =
        match Hashtbl.find_opt raggeds t.Tensor.name with
        | Some r -> r
        | None ->
            let n = Tensor.size_elems t ~lenv:job.W.lenv in
            let a = Runtime.Buffer.Arena.acquire_class arena n in
            let r =
              {
                Ragged.tensor = t;
                buf = Runtime.Buffer.of_floats a;
                lenv = job.W.lenv;
                prefix_cache = Ragged.fresh_prefix_cache t;
              }
            in
            Hashtbl.add raggeds t.Tensor.name r;
            r
      in
      bindings := (t, r.Ragged.buf) :: !bindings
    end
  in
  List.iter
    (fun (k : Lower.kernel) ->
      note k.Lower.out;
      List.iter note k.Lower.reads)
    job.W.kernels;
  Hashtbl.iter
    (fun name r ->
      if not (Hashtbl.mem written name) then Ragged.fill r (Serving.Server.default_fill name))
    raggeds;
  (raggeds, !bindings)

let release raggeds =
  Hashtbl.iter
    (fun _ (r : Ragged.t) ->
      Runtime.Buffer.Arena.release Runtime.Buffer.Arena.global (Runtime.Buffer.floats r.Ragged.buf))
    raggeds

(* [prev] is the predecessor step's prelude and environment, for
   autoregressive workloads. *)
let run ?prev srv (w : W.t) lens =
  let engine = Serving.Server.engine srv and opt = Serving.Server.opt_level srv in
  let (job, _), build_us =
    time (fun () -> Lower.with_memo ~cache:true (fun () -> w.W.build lens))
  in
  let _, of_tables_us = time (fun () -> Sig.of_tables job.W.tables) in
  let _, of_stmt_us =
    time (fun () ->
        List.iter (fun (k : Lower.kernel) -> ignore (Sig.of_stmt k.Lower.body)) job.W.kernels)
  in
  let defs = defs_of job in
  let built, prelude_build_us = time (fun () -> Prelude.build ~dedup_defs:true defs job.W.lenv) in
  let prelude_delta_us =
    match prev with
    | None -> nan
    | Some (pbuilt, plenv) ->
        snd
          (time (fun () ->
               Prelude.delta_update ~dedup_defs:true ~prev:pbuilt ~old_lenv:plenv defs job.W.lenv))
  in
  let _, launch_us =
    time (fun () ->
        Machine.Launch.pipeline ~engine ~opt ~prelude:built ~device:Machine.Device.v100
          ~lenv:job.W.lenv job.W.launches)
  in
  let (raggeds, bindings), fill_us = time (fun () -> bind job) in
  Fun.protect ~finally:(fun () -> release raggeds) @@ fun () ->
  let exec ks = ignore (Exec.run ~engine ~opt ~prelude:built ~lenv:job.W.lenv ~bindings ks) in
  let _, run_us = time (fun () -> exec job.W.kernels) in
  let out, unpack_us = time (fun () -> Ragged.unpack (Hashtbl.find raggeds job.W.out_name)) in
  let kernel_us =
    List.map
      (fun (k : Lower.kernel) -> (k.Lower.kname, snd (time (fun () -> exec [ k ]))))
      job.W.kernels
  in
  {
    build_us;
    of_tables_us;
    of_stmt_us;
    prelude_build_us;
    prelude_delta_us;
    launch_us;
    fill_us;
    run_us;
    unpack_us;
    kernel_us;
    checksum = Array.fold_left ( +. ) 0.0 out;
    built;
    lenv = job.W.lenv;
  }

(* Cold costs of one shape: lowering with every lookup a miss, and the
   compiled engine's closure build for each kernel. *)
let cold srv (w : W.t) lens =
  let (job, _), lower_us =
    time (fun () -> Lower.with_memo ~cache:false (fun () -> w.W.build lens))
  in
  let opt = Serving.Server.opt_level srv in
  let _, compile_us =
    time (fun () ->
        List.iter
          (fun (k : Lower.kernel) -> ignore (Runtime.Engine.compile ~opt k.Lower.body))
          job.W.kernels)
  in
  (lower_us, compile_us)
