(* Quickstart: the example operator of Fig. 1 / Listing 1 of the paper.

   A mini-batch of variable-length rows, doubled elementwise:

       O[b][j] = 2 * A[b][j]      for j < lens[b]

   We declare the ragged shapes, express the computation, schedule it with
   loop and storage padding, lower it, print the generated IR and C code,
   and execute it through the reference interpreter.

   Run with:  dune exec examples/quickstart.exe *)

open Cora

let () =
  (* ---- Operator description (Listing 1, lines 1-16) ---- *)
  let batch_dim = Dim.make "batch" and len_dim = Dim.make "len" in
  let lens_fn = Lenfun.make "lens" in

  (* A and O are 2-d ragged tensors: the inner extent is lens(batch). *)
  let extents = [ Shape.fixed 4; Shape.ragged ~dep:batch_dim ~fn:lens_fn ] in
  let a = Tensor.create ~name:"A" ~dims:[ batch_dim; len_dim ] ~extents in
  let o = Tensor.create ~name:"O" ~dims:[ batch_dim; len_dim ] ~extents in

  (* Storage padding: pad O's variable dimension to a multiple of 4
     (Listing 1, line 19: pad_dimension). *)
  Tensor.pad_dimension o len_dim 4;

  let op =
    Op.compute ~name:"double" ~out:o ~loop_extents:extents ~reads:[ a ] (fun idx ->
        Ir.Expr.mul (Ir.Expr.float 2.0) (Op.access a idx))
  in

  (* ---- Scheduling (Listing 1, lines 17-20) ---- *)
  let sched = Schedule.create op in
  (* Loop padding: pad the vloop to a multiple of 2 (line 18: pad_loop). *)
  Schedule.pad_loop sched (Schedule.axis_of_dim sched 1) 2;
  (* Fuse the batch and length loops (line 20: fuse); here we instead keep
     them nested and bind the outer loop to thread blocks to show the
     simplest schedule. *)
  Schedule.bind_block sched (Schedule.axis_of_dim sched 0);

  (* ---- Lowering ---- *)
  let kernel = Lower.lower sched in
  print_endline "---- lowered IR ----";
  print_endline (Ir.Printer.stmt_to_string kernel.Lower.body);
  print_endline "\n---- generated C ----";
  print_endline (Codegen_c.kernel_to_string kernel);

  (* ---- Execution (Fig. 4's runtime pipeline) ---- *)
  let lens = [| 3; 1; 4; 2 |] in
  let lenv = [ Lenfun.of_array "lens" lens ] in
  let ra = Ragged.alloc a lenv and ro = Ragged.alloc o lenv in
  Ragged.fill ra (fun idx -> float_of_int ((10 * List.nth idx 0) + List.nth idx 1));
  let env, prelude = Exec.run_ragged ~lenv ~tensors:[ ra; ro ] [ kernel ] in
  Printf.printf "\n---- results (%d flops executed, %d aux bytes built by the prelude) ----\n"
    (* the default engine, the interpreter, always returns its counters *)
    (Option.get env).Runtime.Interp.flops (Prelude.bytes prelude);
  Array.iteri
    (fun b n ->
      Printf.printf "O[%d] = [" b;
      for j = 0 to n - 1 do
        Printf.printf " %g" (Ragged.get ro [ b; j ])
      done;
      print_endline " ]")
    lens
