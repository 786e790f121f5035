(* Multicore execution: CPU-scheduled (Parallel-bound) kernels executed on
   the compiled engine's domain pool must produce exactly the bits of a
   serial interpreter run. *)

open Cora
open Transformer

let lens = [| 7; 4; 2 |]
let cfg = Config.tiny ~lens
let lenv = Config.lenv cfg

let bits = Array.map Int64.bits_of_float

(* [`Interp] on one domain is the serial oracle ([Interp.exec]);
   [`Compiled] with [domains > 1] runs Parallel loops on the pool. *)
let exec ~engine ~domains ~lenv tensors kernels =
  ignore (Exec.run_ragged ~engine ~domains ~lenv ~tensors kernels)

(* The CPU-scheduled encoder layer, executed by [exec]; returns the
   unpacked output. *)
let encoder exec =
  let built = Builder.build ~target:Builder.Cpu cfg in
  let t = built.Builder.tensors in
  let w = Reference.random_weights cfg ~seed:3 in
  let tensors = ref [] in
  let bind (tensor : Tensor.t) a =
    let r = Ragged.alloc tensor lenv in
    (match a with
    | Some src -> Array.blit src 0 (Runtime.Buffer.floats r.Ragged.buf) 0 (Array.length src)
    | None -> ());
    tensors := r :: !tensors;
    r
  in
  let _ = bind t.Builder.wqkv (Some w.Reference.wqkv) in
  let _ = bind t.Builder.bqkv (Some w.Reference.bqkv) in
  let _ = bind t.Builder.w2 (Some w.Reference.w2) in
  let _ = bind t.Builder.b2 (Some w.Reference.b2) in
  let _ = bind t.Builder.wf1 (Some w.Reference.wf1) in
  let _ = bind t.Builder.bf1 (Some w.Reference.bf1) in
  let _ = bind t.Builder.wf2 (Some w.Reference.wf2) in
  let _ = bind t.Builder.bf2 (Some w.Reference.bf2) in
  let rin = bind t.Builder.in_t None in
  List.iter
    (fun tensor -> ignore (bind tensor None))
    [ t.Builder.qkv; t.Builder.scores; t.Builder.probs; t.Builder.attn; t.Builder.p2;
      t.Builder.ln1; t.Builder.f1 ];
  let rout = bind t.Builder.out None in
  Ragged.fill rin (fun idx ->
      cos (float_of_int ((11 * List.nth idx 0) + (3 * List.nth idx 1) + List.nth idx 2)) *. 0.4);
  exec !tensors (Builder.kernels built);
  Ragged.unpack rout

let test_multicore_identical () =
  let serial = encoder (exec ~engine:`Interp ~domains:1 ~lenv) in
  let parallel = encoder (exec ~engine:`Compiled ~domains:4 ~lenv) in
  Alcotest.(check int) "same size" (Array.length serial) (Array.length parallel);
  Array.iteri
    (fun i x ->
      if Int64.bits_of_float x <> Int64.bits_of_float parallel.(i) then
        Alcotest.failf "pool diverges at %d: %.9f vs %.9f" i x parallel.(i))
    serial

(* O[i] = i + 1 with its only loop Parallel-bound: every iteration must run
   exactly once on the pool, including ranges shorter than the domain
   count. *)
let iota n =
  let d = Dim.make "i" in
  let o = Tensor.create ~name:"IOTA" ~dims:[ d ] ~extents:[ Shape.fixed n ] in
  let op =
    Op.compute ~name:"iota" ~out:o ~loop_extents:[ Shape.fixed n ] ~reads:[]
      (fun idx -> Ir.Expr.add (List.nth idx 0) Ir.Expr.one)
  in
  let s = Schedule.create op in
  Schedule.parallelize s (Schedule.axis_of_dim s 0);
  (Lower.lower s, o)

let test_parallel_for_covers_range () =
  List.iter
    (fun (n, domains) ->
      let kernel, o = iota n in
      let run exec =
        let r = Ragged.alloc o [] in
        exec [ r ] [ kernel ];
        Array.copy (Runtime.Buffer.floats r.Ragged.buf)
      in
      let oracle = run (exec ~engine:`Interp ~domains:1 ~lenv:[]) in
      let pooled = run (exec ~engine:`Compiled ~domains ~lenv:[]) in
      Array.iteri
        (fun i v -> if int_of_float v <> i + 1 then Alcotest.failf "n=%d: missed %d" n i)
        pooled;
      Alcotest.(check bool)
        (Printf.sprintf "n=%d on %d domains bitwise = serial" n domains)
        true
        (bits pooled = bits oracle))
    [ (23, 5); (23, 4); (3, 4); (1, 4) ];
  (* a zero-trip Parallel loop on a live pool is a no-op *)
  let module E = Runtime.Engine in
  let pool = E.Pool.create ~domains:4 () in
  Fun.protect ~finally:(fun () -> E.Pool.shutdown pool) @@ fun () ->
  let fr =
    E.frame
      (E.compile
         (Ir.Stmt.For
            { var = Ir.Var.fresh "i"; min = Ir.Expr.int 0; extent = Ir.Expr.int 0;
              kind = Parallel; body = Ir.Stmt.Nop }))
  in
  E.run ~pool fr

(* The interpreter is the serial oracle: asking it for domains is an error,
   not a silent serial run. *)
let test_interp_rejects_domains () =
  let kernel, o = iota 4 in
  Alcotest.check_raises "~domains:4 under `Interp"
    (Invalid_argument "Exec.run: ~domains > 1 needs the compiled engine") (fun () ->
      ignore (Exec.run_ragged ~domains:4 ~lenv:[] ~tensors:[ Ragged.alloc o [] ] [ kernel ]))

(* Regression hammer for the per-dimension offset memo: it used to be a
   plain Hashtbl shared across domains (unsynchronized resize = torn
   state); it is now an Atomic per dimension — duplicate cold fills are
   benign, the published array is always complete.  Four domains race
   cold offsets over a nested-ragged tensor (two lenfuns off the same
   batch dim, rows of length zero included) and every result must match
   a serially computed oracle, on every round. *)
let test_ragged_prefix_cache_race () =
  let b = 5 in
  let bd = Dim.make "b" and rd = Dim.make "r" and cd = Dim.make "c" in
  let fr = Lenfun.make "hr" and fc = Lenfun.make "hc" in
  let extents =
    [ Shape.fixed b; Shape.ragged ~dep:bd ~fn:fr; Shape.ragged ~dep:bd ~fn:fc ]
  in
  let t = Tensor.create ~name:"H" ~dims:[ bd; rd; cd ] ~extents in
  let rows = [| 4; 0; 3; 1; 2 |] and cols = [| 2; 5; 1; 4; 3 |] in
  let hlenv = [ Lenfun.of_array "hr" rows; Lenfun.of_array "hc" cols ] in
  let idxs =
    List.concat
      (List.init b (fun bi ->
           List.concat
             (List.init rows.(bi) (fun ri ->
                  List.init cols.(bi) (fun ci -> [ bi; ri; ci ])))))
  in
  let oracle =
    let r = Ragged.alloc t hlenv in
    List.map (Ragged.offset r) idxs
  in
  for round = 1 to 16 do
    (* a fresh instance per round re-races the cold fill *)
    let r = Ragged.alloc t hlenv in
    let doms =
      List.init 4 (fun _ -> Domain.spawn (fun () -> List.map (Ragged.offset r) idxs))
    in
    List.iter
      (fun d ->
        Alcotest.(check (list int))
          (Printf.sprintf "round %d: offsets match serial oracle" round)
          oracle (Domain.join d))
      doms
  done

let () =
  Alcotest.run "multicore"
    [
      ( "domains",
        [
          Alcotest.test_case "encoder identical across domains" `Quick test_multicore_identical;
          Alcotest.test_case "parallel_for covers the range" `Quick test_parallel_for_covers_range;
          Alcotest.test_case "interp rejects domains" `Quick test_interp_rejects_domains;
          Alcotest.test_case "ragged offset memo race-safe" `Quick
            test_ragged_prefix_cache_race;
        ] );
    ]
