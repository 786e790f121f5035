(* The optimization pipeline's contract: at every level (O0/O1/O2/O3),
   serial or on the domain pool, the compiled engine's outputs are
   bitwise-identical to the reference interpreter's.  Plus unit tests of
   LICM, the dot microkernels (including O3's register-tiled nest, its
   aliasing fallback, stride classification and divmod elimination),
   weighted chunk balancing, the interpreter's ufun cache and the buffer
   arena. *)

open Cora

(* ------------------------------------------------------------------ *)
(* Fuzzed schedules: the test_engine.ml decision space (including a
   zero-length row, which exercises LICM's speculation across zero-trip
   loops), replayed per optimization level. *)

type binding = No_bind | Gpu | Par

type decision = {
  storage_pad : int;
  loop_pad : int;
  fuse : bool;
  fsplit : int option;
  split1 : int option;
  split2 : int option;
  rsplit : int option;
  elide : bool;
  hoist : bool;
  bind : binding;
}

let decision_gen =
  let open QCheck.Gen in
  let maybe_factor = oneofl [ None; Some 2; Some 3; Some 4; Some 5 ] in
  let* storage_pad = oneofl [ 1; 2; 4; 8 ] in
  let* loop_pad = oneofl [ 1; 2; 4 ] in
  let* fuse = bool in
  let* fsplit = oneofl [ None; Some 2; Some 4; Some 8 ] in
  let* split1 = maybe_factor in
  let* split2 = oneofl [ None; Some 2 ] in
  let* rsplit = maybe_factor in
  let* elide = bool in
  let* hoist = bool in
  let* bind = oneofl [ No_bind; Gpu; Par ] in
  let loop_pad = if elide && loop_pad > storage_pad then storage_pad else loop_pad in
  let loop_pad, storage_pad = if fuse then (1, 1) else (loop_pad, storage_pad) in
  return { storage_pad; loop_pad; fuse; fsplit; split1; split2; rsplit; elide; hoist; bind }

let print_decision d =
  Printf.sprintf
    "{storage_pad=%d; loop_pad=%d; fuse=%b; fsplit=%s; split1=%s; split2=%s; rsplit=%s; \
     elide=%b; hoist=%b; bind=%s}"
    d.storage_pad d.loop_pad d.fuse
    (match d.fsplit with None -> "-" | Some f -> string_of_int f)
    (match d.split1 with None -> "-" | Some f -> string_of_int f)
    (match d.split2 with None -> "-" | Some f -> string_of_int f)
    (match d.rsplit with None -> "-" | Some f -> string_of_int f)
    d.elide d.hoist
    (match d.bind with No_bind -> "none" | Gpu -> "gpu" | Par -> "par")

let lens = [| 7; 0; 5; 3; 6 |]
let lenv = [ Lenfun.of_array "lens" lens ]

let build_op () =
  let batch = Dim.make "b" and len = Dim.make "j" and red = Dim.make "k" in
  let lensf = Lenfun.make "lens" in
  let extents = [ Shape.fixed 5; Shape.ragged ~dep:batch ~fn:lensf ] in
  let a = Tensor.create ~name:"ZA" ~dims:[ batch; len ] ~extents in
  let o = Tensor.create ~name:"ZO" ~dims:[ batch; len ] ~extents in
  let op =
    Op.reduce ~name:"ofuzz" ~out:o ~loop_extents:extents
      ~rdims:[ (red, Shape.ragged ~dep:batch ~fn:lensf) ]
      ~combine:Ir.Stmt.Sum
      ~init:(fun _ -> Ir.Expr.float 0.0)
      ~reads:[ a ]
      (fun idx ridx ->
        Ir.Expr.mul
          (Op.access a [ List.nth idx 0; List.nth ridx 0 ])
          (Ir.Expr.add (List.nth idx 1) Ir.Expr.one))
  in
  (a, o, op)

let lower_with_decision d : Lower.kernel * Tensor.t * Tensor.t =
  let a, o, op = build_op () in
  let s = Schedule.create op in
  if d.elide then Schedule.set_guard_mode s Schedule.Elide;
  Schedule.set_hoist s d.hoist;
  let apply_bind ax =
    match d.bind with
    | No_bind -> ()
    | Gpu -> Schedule.bind_block s ax
    | Par -> Schedule.parallelize s ax
  in
  if d.fuse then begin
    Tensor.set_bulk_pad a 8;
    Tensor.set_bulk_pad o 8;
    let f = Schedule.fuse s (Schedule.axis_of_dim s 0) (Schedule.axis_of_dim s 1) in
    Schedule.pad_loop s f 8;
    match d.fsplit with
    | Some factor ->
        let fo, _fi = Schedule.split s f factor in
        apply_bind fo
    | None -> apply_bind f
  end
  else begin
    Tensor.pad_dimension o (List.nth o.Tensor.dims 1) d.storage_pad;
    let jax = Schedule.axis_of_dim s 1 in
    Schedule.pad_loop s jax d.loop_pad;
    (match d.split1 with
    | Some f ->
        let jo, _ji = Schedule.split s jax f in
        (match d.split2 with Some f2 -> ignore (Schedule.split s jo f2) | None -> ())
    | None -> ());
    apply_bind (Schedule.axis_of_dim s 0)
  end;
  (match d.rsplit with
  | Some f -> ignore (Schedule.split s (Schedule.axis_of_rdim s 0) f)
  | None -> ());
  (Lower.lower s, a, o)

let run_once ?opt (kernel : Lower.kernel) a o ~engine ~domains : float array =
  let ra = Ragged.alloc a lenv and ro = Ragged.alloc o lenv in
  Ragged.fill ra (fun idx -> float_of_int ((10 * List.nth idx 0) + List.nth idx 1));
  ignore (Exec.run_ragged ~engine ?opt ~domains ~lenv ~tensors:[ ra; ro ] [ kernel ]);
  Array.copy (Runtime.Buffer.floats ro.Ragged.buf)

let bits = Array.map Int64.bits_of_float

let differential d =
  let kernel, a, o = lower_with_decision d in
  let ref_out = run_once kernel a o ~engine:`Interp ~domains:1 in
  let agree label out =
    if bits out <> bits ref_out then
      QCheck.Test.fail_reportf "%s: outputs differ on %s" label (print_decision d);
    true
  in
  List.for_all
    (fun (opt : Ir.Optimize.level) ->
      let name = Ir.Optimize.level_name opt in
      let ok = agree (name ^ " serial") (run_once ~opt kernel a o ~engine:`Compiled ~domains:1) in
      ok
      &&
      match d.bind with
      | Par -> agree (name ^ " pool") (run_once ~opt kernel a o ~engine:`Compiled ~domains:4)
      | No_bind | Gpu -> true)
    [ Ir.Optimize.O0; Ir.Optimize.O1; Ir.Optimize.O2; Ir.Optimize.O3 ]

let prop_differential =
  QCheck.Test.make ~count:150 ~name:"O0/O1/O2/O3 outputs == interpreter (bitwise)"
    (QCheck.make ~print:print_decision decision_gen)
    differential

(* Heavily skewed length table through a Parallel binding: the weighted
   chunking path (Cost_model-estimated per-iteration weights) must not
   change results. *)
let skew_lens = [| 40; 1; 0; 1; 2 |]

let test_skewed_parallel_differential () =
  let d =
    { storage_pad = 2; loop_pad = 2; fuse = false; fsplit = None; split1 = Some 3;
      split2 = None; rsplit = Some 2; elide = false; hoist = true; bind = Par }
  in
  let kernel, a, o = lower_with_decision d in
  let skew_lenv = [ Lenfun.of_array "lens" skew_lens ] in
  let go engine opt domains =
    let ra = Ragged.alloc a skew_lenv and ro = Ragged.alloc o skew_lenv in
    Ragged.fill ra (fun idx -> sin (float_of_int ((7 * List.nth idx 0) + List.nth idx 1)));
    ignore
      (Exec.run_ragged ~engine ~opt ~domains ~lenv:skew_lenv ~tensors:[ ra; ro ] [ kernel ]);
    Array.copy (Runtime.Buffer.floats ro.Ragged.buf)
  in
  let ref_out = go `Interp Ir.Optimize.O0 1 in
  List.iter
    (fun (label, opt, domains) ->
      Alcotest.(check bool) (label ^ " bitwise") true
        (bits (go `Compiled opt domains) = bits ref_out))
    [ ("O0 pool", Ir.Optimize.O0, 4);
      ("O2 serial", Ir.Optimize.O2, 1);
      ("O2 pool", Ir.Optimize.O2, 4);
      ("O3 serial", Ir.Optimize.O3, 1);
      ("O3 pool", Ir.Optimize.O3, 4) ]

(* ------------------------------------------------------------------ *)
(* LICM: the vgemm kernel re-reads its ragged-dimension ufuns in every
   guard, so hoisting must find work. *)

let vgemm_workload () =
  Serving.Workload.vgemm ~batch:4 ~tile:8 ~dims_choices:[| 8; 16; 24 |] ()

let vgemm_job () =
  let w = vgemm_workload () in
  let stream = Serving.Stream.generate ~workload:w ~pool:1 ~n:1 ~seed:7 () in
  (w, stream, w.Serving.Workload.build stream.Serving.Stream.items.(0))

let test_licm_hoists_on_vgemm () =
  let _, _, job = vgemm_job () in
  let k = List.hd job.Serving.Workload.kernels in
  let _opt, r = Ir.Optimize.licm k.Lower.body in
  Alcotest.(check bool) "hoisted bindings found" true (r.Ir.Optimize.hoisted > 0)

(* ------------------------------------------------------------------ *)
(* Microkernels.  The engine counts no scalar work; a microkernel is seen
   through its closure-build variant counter and the runtime fallback
   counter, which must stay put whenever the fast path runs. *)

let mk_variant name = Obs.Metrics.value (Obs.Metrics.counter ("engine.mk_variant." ^ name))
let mk_fallback () = Obs.Metrics.value (Obs.Metrics.counter "engine.mk_fallback")

let rec has_dot (s : Ir.Stmt.t) : bool =
  match s with
  | Ir.Stmt.For { var; body; _ } -> (
      match Ir.Optimize.classify_inner ~var body with
      | Some (Ir.Optimize.Dot _) -> true
      | _ -> has_dot body)
  | Ir.Stmt.Seq l -> List.exists has_dot l
  | Ir.Stmt.If (_, a, b) -> has_dot a || Option.fold ~none:false ~some:has_dot b
  | Ir.Stmt.Let_stmt (_, _, b) -> has_dot b
  | Ir.Stmt.Alloc { body; _ } -> has_dot body
  | _ -> false

let test_vgemm_inner_is_dot () =
  let _, _, job = vgemm_job () in
  let k = List.hd job.Serving.Workload.kernels in
  let opt, _ = Ir.Optimize.run ~level:Ir.Optimize.O2 k.Lower.body in
  Alcotest.(check bool) "vgemm inner loop classifies as dot" true (has_dot opt)

let test_vgemm_microkernel_fires () =
  (* a cold engine memo, so the replay compiles (and binds variants) here *)
  Exec.clear_engine_memo ();
  let before = mk_variant "dot.generic" and fb_before = mk_fallback () in
  let w, stream, _ = vgemm_job () in
  let srv =
    Serving.Server.create ~execute:true ~engine:`Compiled ~opt:Ir.Optimize.O2 ()
  in
  ignore (Serving.Stream.replay srv w stream);
  Alcotest.(check bool) "dot microkernel bound" true (mk_variant "dot.generic" > before);
  Alcotest.(check int) "no runtime fallback" fb_before (mk_fallback ())

(* A hand-built unit-stride dot loop: the microkernel must bind at O2 and
   O3 (not at O0), run without falling back, and agree with O0 bitwise. *)
let test_dot_microkernel_direct () =
  let module E = Runtime.Engine in
  let i = Ir.Var.fresh "i" and a = Ir.Var.fresh "A" and b = Ir.Var.fresh "B" in
  let c = Ir.Var.fresh "C" in
  let body =
    Ir.Stmt.For
      { var = i; min = Ir.Expr.zero; extent = Ir.Expr.int 8; kind = Ir.Stmt.Serial;
        body =
          Ir.Stmt.Reduce_store
            { buf = c; index = Ir.Expr.zero; op = Ir.Stmt.Sum;
              value =
                Ir.Expr.mul
                  (Ir.Expr.Load { buf = a; index = Ir.Expr.var i })
                  (Ir.Expr.Load { buf = b; index = Ir.Expr.var i });
            };
      }
  in
  let run opt =
    let fr = E.frame (E.compile ~opt body) in
    let fa = Array.init 8 (fun j -> 0.1 +. (0.3 *. float_of_int j)) in
    let fb = Array.init 8 (fun j -> 1.7 -. (0.2 *. float_of_int j)) in
    let fc = [| 0.0 |] in
    E.bind_buf fr a (Runtime.Buffer.of_floats fa);
    E.bind_buf fr b (Runtime.Buffer.of_floats fb);
    E.bind_buf fr c (Runtime.Buffer.of_floats fc);
    E.run fr;
    fc.(0)
  in
  let before = mk_variant "dot.generic" and u4_before = mk_variant "dot.sum_u4" in
  let fb_before = mk_fallback () in
  let v0 = run Ir.Optimize.O0 in
  Alcotest.(check int) "O0 binds no microkernel" before (mk_variant "dot.generic");
  let v2 = run Ir.Optimize.O2 in
  Alcotest.(check bool) "O2 binds the dot microkernel" true (mk_variant "dot.generic" > before);
  let v3 = run Ir.Optimize.O3 in
  Alcotest.(check bool) "O3 binds the unit-stride variant" true
    (mk_variant "dot.sum_u4" > u4_before);
  Alcotest.(check int) "no runtime fallback" fb_before (mk_fallback ());
  Alcotest.(check bool) "O0 = O2 bitwise" true (Int64.bits_of_float v0 = Int64.bits_of_float v2);
  Alcotest.(check bool) "O0 = O3 bitwise" true (Int64.bits_of_float v0 = Int64.bits_of_float v3)

(* ------------------------------------------------------------------ *)
(* O3: register-tiled dot nests, stride classes, divmod elimination *)

let load buf index = Ir.Expr.Load { buf; index }

(* The canonical feature-bearing dot nest — guard, init store, a
   k-invariant mask conjunct, a [k < bound] conjunct and a scaling
   epilogue:

     for j < nj:
       if j < nj-1:
         C[j] = 0
         for k < nk: C[j] += (j < nj-2 && k < nk-3) ? A[j*nk+k]*B[k] : 0.
         C[j] = C[j] * 2

   Row nj-2 is guard-true but mask-false everywhere (the all-zero chain
   must still run the epilogue); row nj-1 is guard-false (its cell is
   never touched). *)
let tiled_nest ~nj ~nk (j, k, a, b, c) =
  let open Ir in
  let jv = Expr.var j and kv = Expr.var k in
  let prod =
    Expr.mul (load a (Expr.add (Expr.mul jv (Expr.int nk)) kv)) (load b kv)
  in
  let mask =
    Expr.And (Expr.lt jv (Expr.int (nj - 2)), Expr.lt kv (Expr.int (nk - 3)))
  in
  let kloop =
    Stmt.For
      { var = k; min = Expr.zero; extent = Expr.int nk; kind = Stmt.Serial;
        body =
          Stmt.Reduce_store
            { buf = c; index = jv; op = Stmt.Sum;
              value = Expr.Select (mask, prod, Expr.float 0.0) };
      }
  in
  Stmt.For
    { var = j; min = Expr.zero; extent = Expr.int nj; kind = Stmt.Serial;
      body =
        Stmt.If
          ( Expr.lt jv (Expr.int (nj - 1)),
            Stmt.Seq
              [
                Stmt.Store { buf = c; index = jv; value = Expr.float 0.0 };
                kloop;
                Stmt.Store
                  { buf = c; index = jv; value = Expr.mul (load c jv) (Expr.float 2.0) };
              ],
            None );
    }

let nj = 9
let nk = 10

let run_tiled opt =
  let module E = Runtime.Engine in
  let j = Ir.Var.fresh "j" and k = Ir.Var.fresh "k" in
  let a = Ir.Var.fresh "A" and b = Ir.Var.fresh "B" and c = Ir.Var.fresh "C" in
  let fr = E.frame (E.compile ~opt (tiled_nest ~nj ~nk (j, k, a, b, c))) in
  let fa = Array.init (nj * nk) (fun i -> sin (float_of_int i)) in
  let fb = Array.init nk (fun i -> cos (float_of_int i)) in
  (* the guard-false row keeps this sentinel at every level *)
  let fc = Array.make nj (-7.5) in
  E.bind_buf fr a (Runtime.Buffer.of_floats fa);
  E.bind_buf fr b (Runtime.Buffer.of_floats fb);
  E.bind_buf fr c (Runtime.Buffer.of_floats fc);
  E.run fr;
  Array.copy fc

(* The tiled path must bind the masked register-tiled variant, run it
   without a runtime fallback, and agree with O0 bitwise (including the
   all-zero-chain epilogue and the untouched guard-false cell). *)
let test_o3_tiled_nest () =
  let before = mk_variant "dot.tile4_split" in
  let o0 = run_tiled Ir.Optimize.O0 in
  let o2 = run_tiled Ir.Optimize.O2 in
  let fb_before = mk_fallback () in
  let o3 = run_tiled Ir.Optimize.O3 in
  Alcotest.(check bool) "tile4_split variant bound" true
    (mk_variant "dot.tile4_split" > before);
  Alcotest.(check int) "O3 tiles without falling back" fb_before (mk_fallback ());
  Alcotest.(check bool) "O0 = O2 bitwise" true (bits o2 = bits o0);
  Alcotest.(check bool) "O0 = O3 bitwise" true (bits o3 = bits o0)

(* Destination aliasing an operand array is only detectable at run time;
   the tiled closure must fall back to the generic loop (register
   accumulation would read stale values) and stay bitwise with O0. *)
let test_o3_aliased_dst_falls_back () =
  let module E = Runtime.Engine in
  let anj = 4 and ank = 8 in
  let j = Ir.Var.fresh "j" and k = Ir.Var.fresh "k" in
  let a = Ir.Var.fresh "A" and b = Ir.Var.fresh "B" and c = Ir.Var.fresh "C" in
  let open Ir in
  let body =
    Stmt.For
      { var = j; min = Expr.zero; extent = Expr.int anj; kind = Stmt.Serial;
        body =
          Stmt.For
            { var = k; min = Expr.zero; extent = Expr.int ank; kind = Stmt.Serial;
              body =
                Stmt.Reduce_store
                  { buf = c; index = Expr.var j; op = Stmt.Sum;
                    value =
                      Expr.mul
                        (load a
                           (Expr.add (Expr.mul (Expr.var j) (Expr.int ank)) (Expr.var k)))
                        (load b (Expr.var k)) };
            };
      }
  in
  let run opt =
    let fr = E.frame (E.compile ~opt body) in
    let fa = Array.init (anj * ank) (fun i -> cos (float_of_int i)) in
    (* C and B share one array: C's cells sit inside the range B reads,
       so each chain's partial sums feed later chains' operand loads *)
    let shared = Runtime.Buffer.of_floats (Array.init ank (fun i -> 0.5 +. float_of_int i)) in
    E.bind_buf fr a (Runtime.Buffer.of_floats fa);
    E.bind_buf fr b shared;
    E.bind_buf fr c shared;
    E.run fr;
    Array.copy (Runtime.Buffer.floats shared)
  in
  let o0 = run Ir.Optimize.O0 in
  let fb_before = mk_fallback () in
  let o3 = run Ir.Optimize.O3 in
  Alcotest.(check bool) "aliased run falls back" true (mk_fallback () > fb_before);
  Alcotest.(check bool) "O0 = O3 bitwise under aliasing" true (bits o3 = bits o0)

(* A reduction whose operand stride is a runtime value (S_dyn) must select
   the strided variant, not the unit-stride unrolled one. *)
let test_o3_dynamic_stride_selects_strided () =
  let module E = Runtime.Engine in
  let n = 8 in
  let k = Ir.Var.fresh "k" and s = Ir.Var.fresh "s" in
  let a = Ir.Var.fresh "A" and b = Ir.Var.fresh "B" and c = Ir.Var.fresh "C" in
  let open Ir in
  let body =
    Stmt.Let_stmt
      ( s,
        Expr.int 3,
        Stmt.For
          { var = k; min = Expr.zero; extent = Expr.int n; kind = Stmt.Serial;
            body =
              Stmt.Reduce_store
                { buf = c; index = Expr.zero; op = Stmt.Sum;
                  value =
                    Expr.mul
                      (load a (Expr.Binop (Expr.Mul, Expr.var k, Expr.var s)))
                      (load b (Expr.var k)) };
          } )
  in
  let run opt =
    let fr = E.frame (E.compile ~opt body) in
    E.bind_buf fr a
      (Runtime.Buffer.of_floats (Array.init (3 * n) (fun i -> sin (float_of_int i))));
    E.bind_buf fr b
      (Runtime.Buffer.of_floats (Array.init n (fun i -> 1.3 -. (0.2 *. float_of_int i))));
    let fc = [| 0.25 |] in
    E.bind_buf fr c (Runtime.Buffer.of_floats fc);
    E.run fr;
    fc.(0)
  in
  let strided_before = mk_variant "dot.sum_s4" in
  let unit_before = mk_variant "dot.sum_u4" in
  let v0 = run Ir.Optimize.O0 in
  let fb_before = mk_fallback () in
  let v3 = run Ir.Optimize.O3 in
  Alcotest.(check bool) "strided variant selected" true
    (mk_variant "dot.sum_s4" > strided_before);
  Alcotest.(check int) "unit variant not selected" unit_before (mk_variant "dot.sum_u4");
  Alcotest.(check int) "no runtime fallback" fb_before (mk_fallback ());
  Alcotest.(check bool) "O0 = O3 bitwise" true
    (Int64.bits_of_float v0 = Int64.bits_of_float v3)

(* The division identity (e/c)*c + e%c = e, exact for the IR's floored
   div/mod pair: the O3 pass must rewrite the gather index to the plain
   loop var — making it affine, so the copy upgrades to a blit — and the
   optimized program must stay bitwise with O0. *)
let test_o3_divmod_elim () =
  let module E = Runtime.Engine in
  let n = 20 in
  let k = Ir.Var.fresh "k" in
  let a = Ir.Var.fresh "A" and d = Ir.Var.fresh "D" in
  let open Ir in
  let idx =
    Expr.add
      (Expr.mul (Expr.floordiv (Expr.var k) (Expr.int 8)) (Expr.int 8))
      (Expr.imod (Expr.var k) (Expr.int 8))
  in
  let body =
    Stmt.For
      { var = k; min = Expr.zero; extent = Expr.int n; kind = Stmt.Serial;
        body = Stmt.Store { buf = d; index = Expr.var k; value = load a idx } }
  in
  let before = Obs.Metrics.value (Obs.Metrics.counter "optimize.divmod_eliminated") in
  let o3_body, _ = Ir.Optimize.run ~level:Ir.Optimize.O3 body in
  Alcotest.(check bool) "pass counted an elimination" true
    (Obs.Metrics.value (Obs.Metrics.counter "optimize.divmod_eliminated") > before);
  let residue = ref false in
  ignore
    (Stmt.map_exprs
       (Expr.map_bottom_up (fun e ->
            (match e with
            | Expr.Binop (Expr.FloorDiv, _, _) | Expr.Binop (Expr.Mod, _, _) ->
                residue := true
            | _ -> ());
            e))
       o3_body)
  [@warning "-5"];
  Alcotest.(check bool) "no div/mod residue" false !residue;
  let run opt body =
    let fr = E.frame (E.compile ~opt body) in
    let fd = Array.make n nan in
    E.bind_buf fr a
      (Runtime.Buffer.of_floats (Array.init n (fun i -> exp (0.1 *. float_of_int i))));
    E.bind_buf fr d (Runtime.Buffer.of_floats fd);
    E.run fr;
    Array.copy fd
  in
  let blit_before = mk_variant "copy.blit" in
  let o0 = run Ir.Optimize.O0 body in
  let o3 = run Ir.Optimize.O3 o3_body in
  Alcotest.(check bool) "rewritten gather upgrades to blit" true
    (mk_variant "copy.blit" > blit_before);
  Alcotest.(check bool) "O0 = O3 bitwise" true (bits o3 = bits o0)

(* ------------------------------------------------------------------ *)
(* O3 operation splitting and the fused softmax row: differential checks
   against the interpreter (the bitwise oracle) and the compiled O0 engine,
   with row lengths that leave partial tiles, fully masked rows, and
   -0. / +-inf / NaN inputs. *)

let specials = [| -0.0; infinity; neg_infinity; nan |]

(* A hand-built nest carrying every conjunct kind the classifier sorts:

     for i < nrows:
       for j < jp:                                          (tile var)
         if (j + i < 10):                                   limit
           C[i*jp + j] = -0.
           for k < nk:
             C[i*jp+j] += (i < live && j < len(i) && k < kb(i))
                          ? A[i*nk+k] * B[j*nk+k] : 0.
           C[i*jp+j] = C[i*jp+j] * 0.5

   [i < live] is row-invariant (row [live] is fully masked), [j < len(i)]
   an affine limit over lengths 1, 3, 4, 5, 7 and 0, so the dot range
   ends in a partial tile; the guard leaves the last cells of the late
   rows untouched.  Rows 1 and 3 have all -0. products:
   [kb(1) = nk] keeps row 1's chains -0. through the folded scale, while
   [kb(i) = nk-1] elsewhere leaves a one-add zero tail, so row 3's must
   come out +0.; row 2 carries +-inf and NaN operands. *)
let split_lens = [| 1; 3; 4; 5; 7; 0; 6 |]
let split_rows = Array.length split_lens
let split_live = split_rows - 1
let split_jp = 8
let split_nk = 6
let split_kb = Array.init split_rows (fun i -> if i = 1 then split_nk else split_nk - 1)

let split_nest ?(mask_lim = fun jv lenv -> Ir.Expr.lt jv lenv) (i, j, k, a, b, c) =
  let open Ir in
  let iv = Expr.var i and jv = Expr.var j and kv = Expr.var k in
  let cell = Expr.add (Expr.mul iv (Expr.int split_jp)) jv in
  let mask =
    Expr.And
      ( Expr.And (Expr.lt iv (Expr.int split_live), mask_lim jv (Expr.ufun "len" [ iv ])),
        Expr.lt kv (Expr.ufun "kb" [ iv ]) )
  in
  let prod =
    Expr.mul
      (load a (Expr.add (Expr.mul iv (Expr.int split_nk)) kv))
      (load b (Expr.add (Expr.mul jv (Expr.int split_nk)) kv))
  in
  Stmt.For
    { var = i; min = Expr.zero; extent = Expr.int split_rows; kind = Stmt.Serial;
      body =
        Stmt.For
          { var = j; min = Expr.zero; extent = Expr.int split_jp; kind = Stmt.Serial;
            body =
              Stmt.If
                ( Expr.lt (Expr.add jv iv) (Expr.int 10),
                  Stmt.Seq
                    [
                      Stmt.Store { buf = c; index = cell; value = Expr.float (-0.0) };
                      Stmt.For
                        { var = k; min = Expr.zero; extent = Expr.int split_nk;
                          kind = Stmt.Serial;
                          body =
                            Stmt.Reduce_store
                              { buf = c; index = cell; op = Stmt.Sum;
                                value = Expr.Select (mask, prod, Expr.float 0.0) } };
                      Stmt.Store
                        { buf = c; index = cell; value = Expr.mul (load c cell) (Expr.float 0.5) };
                    ],
                  None );
          };
    }

let split_inputs () =
  let fa =
    Array.init (split_rows * split_nk) (fun x ->
        let i = x / split_nk and k = x mod split_nk in
        if i = 1 || i = 3 then -0.0
        else if i = 2 then specials.(k mod 4)
        else sin (float_of_int x))
  in
  let fb = Array.init (split_jp * split_nk) (fun x -> 0.5 +. float_of_int (x mod 5)) in
  (fa, fb)

(* run the nest on the interpreter ([None]) or the engine at [opt] *)
let run_split ?mask_lim opt =
  let module E = Runtime.Engine in
  let vars = Ir.Var.(fresh "i", fresh "j", fresh "k", fresh "A", fresh "B", fresh "C") in
  let _, _, _, a, b, c = vars in
  let body = split_nest ?mask_lim vars in
  let fa, fb = split_inputs () in
  (* untouched cells keep this sentinel *)
  let fc = Array.make (split_rows * split_jp) 42.0 in
  let bind f g h =
    f a (Runtime.Buffer.of_floats fa);
    f b (Runtime.Buffer.of_floats fb);
    f c (Runtime.Buffer.of_floats fc);
    g "len" split_lens;
    g "kb" split_kb;
    h ()
  in
  (match opt with
  | None ->
      let env = Runtime.Interp.create () in
      bind (Runtime.Interp.bind_buf env) (Runtime.Interp.bind_ufun_array env) (fun () ->
          Runtime.Interp.exec env body)
  | Some opt ->
      let fr = E.frame (E.compile ~opt body) in
      bind (E.bind_buf fr) (E.bind_ufun_table fr) (fun () -> E.run fr));
  fc

let test_o3_split_nest () =
  let oracle = run_split None in
  let split_before = mk_variant "dot.tile4_split" and fb_before = mk_fallback () in
  let o3 = run_split (Some Ir.Optimize.O3) in
  Alcotest.(check bool) "tile4_split variant bound" true (mk_variant "dot.tile4_split" > split_before);
  Alcotest.(check int) "no runtime fallback" fb_before (mk_fallback ());
  Alcotest.(check bool) "O0 = interpreter bitwise" true
    (bits (run_split (Some Ir.Optimize.O0)) = bits oracle);
  Alcotest.(check bool) "O3 = interpreter bitwise" true (bits o3 = bits oracle);
  (* the expected special cases actually occur *)
  Alcotest.(check bool) "guard-skipped cell untouched" true (o3.((4 * split_jp) + 7) = 42.0);
  Alcotest.(check bool) "-0. chain scaled to -0." true
    (Int64.bits_of_float o3.((1 * split_jp) + 1) = Int64.bits_of_float (-0.0));
  Alcotest.(check bool) "-0. chain tail-fixed to +0." true
    (Int64.bits_of_float o3.((3 * split_jp) + 1) = 0L);
  Alcotest.(check bool) "NaN propagates" true (Float.is_nan o3.((2 * split_jp) + 1))

(* A conjunct that is neither tile-var invariant nor an affine limit
   with a positive stride rejects the nest: it runs on the generic loops,
   still bitwise. *)
let test_o3_nonaffine_conjunct_not_tiled () =
  let open Ir.Expr in
  List.iter
    (fun (label, mask_lim) ->
      let i = Ir.Var.fresh "i" and j = Ir.Var.fresh "j" and k = Ir.Var.fresh "k" in
      let a = Ir.Var.fresh "A" and b = Ir.Var.fresh "B" and c = Ir.Var.fresh "C" in
      (match split_nest ~mask_lim (i, j, k, a, b, c) with
      | Ir.Stmt.For { body = Ir.Stmt.For { var; body; _ }; _ } ->
          Alcotest.(check bool) (label ^ ": not classified") true
            (Option.is_none (Ir.Optimize.classify_nest ~var body))
      | _ -> Alcotest.fail "unexpected nest shape");
      Alcotest.(check bool) (label ^ ": O3 = interpreter bitwise") true
        (bits (run_split ~mask_lim (Some Ir.Optimize.O3)) = bits (run_split ~mask_lim None)))
    [
      ("j*j < len", fun jv lenv -> lt (mul jv jv) lenv);
      ("len - j < 3", fun jv lenv -> lt (sub lenv jv) (int 3));
    ]

(* Softmax rows of [Custom.softmax] over descending lengths 7 5 4 3 1
   (pad 4: rows end in partial tiles and zero-fill), scores seeded with
   -0., +-inf and NaN, one row all -inf. *)
let sm_cfg = Transformer.Config.tiny ~lens:[| 7; 5; 4; 3; 1 |]

let score_value idx =
  match idx with
  | [ 2; 1; _; _ ] -> neg_infinity
  | [ b; r; h; c ] ->
      let x = (b * 101) + (r * 37) + (h * 11) + c in
      if x mod 9 = 4 then specials.(x / 9 mod 4) else 3.0 *. sin (float_of_int x)
  | _ -> 0.0

let run_softmax ?col_extent ~alias ~engine opt =
  Exec.clear_engine_memo ();
  let scores = Transformer.Masked.square_matrix sm_cfg "SMX" in
  let probs = if alias then scores else Transformer.Masked.square_matrix sm_cfg "SMXS" in
  let kernel =
    Transformer.Custom.softmax ~cfg:sm_cfg ~scores ~probs ~target:Transformer.Custom.Gpu
      ?col_extent ~name:"SoftmaxT" ()
  in
  let lenv = Transformer.Config.lenv sm_cfg in
  let rs = Ragged.alloc scores lenv in
  Ragged.fill rs score_value;
  let tensors = if alias then [ rs ] else [ rs; Ragged.alloc probs lenv ] in
  ignore (Exec.run_ragged ~engine ~opt ~lenv ~tensors [ kernel ]);
  Array.copy (Runtime.Buffer.floats (List.nth tensors (List.length tensors - 1)).Ragged.buf)

let test_o3_softmax_row () =
  List.iter
    (fun (label, col_extent) ->
      let oracle = run_softmax ?col_extent ~alias:false ~engine:`Interp Ir.Optimize.O0 in
      let row_before = mk_variant "softmax.row" and fb_before = mk_fallback () in
      let o3 = run_softmax ?col_extent ~alias:false ~engine:`Compiled Ir.Optimize.O3 in
      Alcotest.(check bool) (label ^ ": softmax.row bound") true
        (mk_variant "softmax.row" > row_before);
      Alcotest.(check int) (label ^ ": no runtime fallback") fb_before (mk_fallback ());
      Alcotest.(check bool) (label ^ ": O0 = interpreter bitwise") true
        (bits (run_softmax ?col_extent ~alias:false ~engine:`Compiled Ir.Optimize.O0)
        = bits oracle);
      Alcotest.(check bool) (label ^ ": O3 = interpreter bitwise") true (bits o3 = bits oracle);
      Alcotest.(check bool) (label ^ ": NaN reached the output") true
        (Array.exists Float.is_nan o3))
    [
      ("full rows", None);
      (* cols = min(r, seq): row 0 has no live column at all *)
      ("prefix rows", Some (fun ~row ~seq ~batch:_ -> Ir.Expr.min_ row seq));
    ]

(* probs == scores: the destination cannot cache exps, so every row takes
   the generic loops — and stays bitwise equal. *)
let test_o3_softmax_aliased_falls_back () =
  let oracle = run_softmax ~alias:true ~engine:`Interp Ir.Optimize.O0 in
  let fb_before = mk_fallback () in
  let o3 = run_softmax ~alias:true ~engine:`Compiled Ir.Optimize.O3 in
  Alcotest.(check bool) "aliased rows fall back" true (mk_fallback () > fb_before);
  Alcotest.(check bool) "O3 = interpreter bitwise" true (bits o3 = bits oracle)

(* The other attention kernels at O3 against the interpreter: masked
   attention in both storage variants, and one decode step. *)
let run_all ~engine ~opt ~lenv ~inputs ~outputs kernels =
  Exec.clear_engine_memo ();
  let rs = List.map (fun t -> Ragged.alloc t lenv) (inputs @ outputs) in
  List.iteri
    (fun n r ->
      if n < List.length inputs then
        Ragged.fill r (fun idx ->
            sin (float_of_int (List.fold_left (fun acc i -> (acc * 31) + i) (n + 3) idx)) *. 0.6))
    rs;
  ignore (Exec.run_ragged ~engine ~opt ~lenv ~tensors:rs kernels);
  List.map (fun (r : Ragged.t) -> bits (Runtime.Buffer.floats r.Ragged.buf)) rs

let check_attention label ~lenv ~inputs ~outputs kernels =
  let oracle = run_all ~engine:`Interp ~opt:Ir.Optimize.O0 ~lenv ~inputs ~outputs kernels in
  let row_before = mk_variant "softmax.row" and split_before = mk_variant "dot.tile4_split" in
  let fb_before = mk_fallback () in
  let o3 = run_all ~engine:`Compiled ~opt:Ir.Optimize.O3 ~lenv ~inputs ~outputs kernels in
  Alcotest.(check bool) (label ^ ": softmax.row bound") true (mk_variant "softmax.row" > row_before);
  Alcotest.(check bool) (label ^ ": tile4_split bound") true
    (mk_variant "dot.tile4_split" > split_before);
  Alcotest.(check int) (label ^ ": no runtime fallback") fb_before (mk_fallback ());
  Alcotest.(check bool) (label ^ ": O3 = interpreter bitwise") true (o3 = oracle)

let test_o3_masked_attention () =
  let cfg = Transformer.Config.tiny ~lens:[| 7; 5; 2 |] in
  List.iter
    (fun (label, variant) ->
      let t = Transformer.Masked.build ~variant cfg in
      check_attention label ~lenv:(Transformer.Masked.lenv cfg) ~inputs:[ t.Transformer.Masked.qkv ]
        ~outputs:[ t.Transformer.Masked.scores; t.Transformer.Masked.probs; t.Transformer.Masked.attn ]
        t.Transformer.Masked.kernels)
    [ ("No_pad", Transformer.Masked.No_pad); ("Pad", Transformer.Masked.Pad) ]

let test_o3_decode_step () =
  let module D = Transformer.Decoder in
  let cfg = D.make ~tgt_lens:[| 1; 1; 1 |] ~src_lens:[| 7; 1; 5 |] ~tiny:true () in
  let d = D.build_decode cfg in
  check_attention "decode" ~lenv:(D.lenv cfg) ~inputs:[ d.D.dq; d.D.dkv ]
    ~outputs:[ d.D.dkn; d.D.dscores; d.D.dprobs; d.D.dattn ]
    d.D.dkernels

(* ------------------------------------------------------------------ *)
(* Weighted chunk balancing *)

let test_balance_chunks_skewed () =
  let ws = [| 100; 1; 1; 1; 1; 1; 1; 1 |] in
  let k = 4 in
  let bounds = Runtime.Engine.balance_chunks ws k in
  Alcotest.(check int) "k+1 cut points" (k + 1) (Array.length bounds);
  Alcotest.(check int) "starts at 0" 0 bounds.(0);
  Alcotest.(check int) "ends at n" (Array.length ws) bounds.(k);
  for c = 0 to k - 1 do
    Alcotest.(check bool) (Printf.sprintf "chunk %d nonempty" c) true (bounds.(c) < bounds.(c + 1))
  done;
  (* the heavy item gets a chunk to itself *)
  Alcotest.(check int) "heavy item isolated" 1 bounds.(1)

let test_balance_chunks_uniform () =
  let ws = Array.make 12 5 in
  let bounds = Runtime.Engine.balance_chunks ws 3 in
  Alcotest.(check (array int)) "even split" [| 0; 4; 8; 12 |] bounds

(* ------------------------------------------------------------------ *)
(* Interpreter ufun cache *)

let test_ufun_cache_hits () =
  let before = Obs.Metrics.value (Obs.Metrics.counter "ufun_cache.hit") in
  let i = Ir.Var.fresh "i" and dst = Ir.Var.fresh "dst" in
  let body =
    Ir.Stmt.For
      { var = i; min = Ir.Expr.zero; extent = Ir.Expr.int 6; kind = Ir.Stmt.Serial;
        body =
          Ir.Stmt.Store
            { buf = dst; index = Ir.Expr.var i;
              (* t(0) is re-read every iteration: 5 of the 6 reads hit *)
              value =
                Ir.Expr.Binop
                  (Ir.Expr.Add,
                   Ir.Expr.ufun "t" [ Ir.Expr.zero ],
                   Ir.Expr.float 0.5);
            };
      }
  in
  let env = Runtime.Interp.create () in
  Runtime.Interp.bind_buf env dst (Runtime.Buffer.float_buf 6);
  Runtime.Interp.bind_ufun_array env "t" [| 3; 1; 4 |];
  Runtime.Interp.exec env body;
  let after = Obs.Metrics.value (Obs.Metrics.counter "ufun_cache.hit") in
  Alcotest.(check int) "repeat lookups hit" 5 (after - before);
  Alcotest.(check int) "loads unchanged by caching" 6 env.Runtime.Interp.loads

(* ------------------------------------------------------------------ *)
(* Buffer arena *)

let test_arena_reuse () =
  let open Runtime.Buffer in
  let t = Arena.create () in
  let a = Arena.acquire t 100 in
  a.(0) <- 42.0;
  Arena.release t a;
  Alcotest.(check int) "stored after release" 1 (Arena.stored t);
  let b = Arena.acquire t 100 in
  Alcotest.(check bool) "same array recycled" true (a == b);
  Alcotest.(check (float 0.0)) "zero-filled on reuse" 0.0 b.(0);
  let c = Arena.acquire_class t 100 in
  Alcotest.(check int) "class rounds to pow2" 128 (Array.length c);
  Arena.clear t;
  Alcotest.(check int) "clear empties" 0 (Arena.stored t)

let test_arena_negative_raises () =
  let open Runtime.Buffer in
  let t = Arena.create () in
  Alcotest.check_raises "negative size raises like Array.make"
    (Invalid_argument "Array.make") (fun () -> ignore (Arena.acquire t (-1)))

let () =
  Alcotest.run "optimize"
    [
      ( "differential",
        [
          QCheck_alcotest.to_alcotest prop_differential;
          Alcotest.test_case "skewed lens, weighted chunks" `Quick
            test_skewed_parallel_differential;
        ] );
      ( "licm",
        [
          Alcotest.test_case "vgemm hoists" `Quick test_licm_hoists_on_vgemm;
        ] );
      ( "microkernel",
        [
          Alcotest.test_case "vgemm inner loop is a dot" `Quick test_vgemm_inner_is_dot;
          Alcotest.test_case "vgemm microkernel fires" `Quick test_vgemm_microkernel_fires;
          Alcotest.test_case "direct dot: counted + bitwise" `Quick test_dot_microkernel_direct;
        ] );
      ( "o3",
        [
          Alcotest.test_case "register-tiled nest: variant + counters + bitwise" `Quick
            test_o3_tiled_nest;
          Alcotest.test_case "aliased destination falls back" `Quick
            test_o3_aliased_dst_falls_back;
          Alcotest.test_case "dynamic stride selects strided variant" `Quick
            test_o3_dynamic_stride_selects_strided;
          Alcotest.test_case "divmod elimination" `Quick test_o3_divmod_elim;
          Alcotest.test_case "split nest: tails, masked rows, specials" `Quick
            test_o3_split_nest;
          Alcotest.test_case "non-affine conjunct is not tiled" `Quick
            test_o3_nonaffine_conjunct_not_tiled;
          Alcotest.test_case "softmax row: tails, empty rows, specials" `Quick
            test_o3_softmax_row;
          Alcotest.test_case "aliased softmax row falls back" `Quick
            test_o3_softmax_aliased_falls_back;
          Alcotest.test_case "masked attention, both storages" `Quick test_o3_masked_attention;
          Alcotest.test_case "decode step" `Quick test_o3_decode_step;
        ] );
      ( "chunks",
        [
          Alcotest.test_case "skewed weights" `Quick test_balance_chunks_skewed;
          Alcotest.test_case "uniform weights" `Quick test_balance_chunks_uniform;
        ] );
      ("ufun-cache", [ Alcotest.test_case "last-lookup cache" `Quick test_ufun_cache_hits ]);
      ( "arena",
        [
          Alcotest.test_case "reuse + size classes" `Quick test_arena_reuse;
          Alcotest.test_case "negative size" `Quick test_arena_negative_raises;
        ] );
    ]
