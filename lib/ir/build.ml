open Emsc_arith
open Emsc_linalg
open Emsc_poly

let box_domain ~np bounds =
  let depth = List.length bounds in
  let dim = depth + np in
  let rows =
    List.concat
      (List.mapi
         (fun i (lo, hi) ->
           let ge = Vec.make (dim + 1) in
           ge.(i) <- Zint.one;
           ge.(dim) <- Zint.of_int (-lo);
           let le = Vec.make (dim + 1) in
           le.(i) <- Zint.minus_one;
           le.(dim) <- Zint.of_int hi;
           [ ge; le ])
         bounds)
  in
  Poly.make ~dim ~eqs:[] ~ineqs:rows

let domain_rows ~np ~depth rows =
  ignore depth;
  let dim = depth + np in
  Poly.make ~dim ~eqs:[] ~ineqs:(List.map Vec.of_ints rows)

let schedule_2d1 ~np ~depth ~beta =
  if List.length beta <> depth + 1 then
    invalid_arg "Build.schedule_2d1: beta length <> depth+1";
  let width = depth + np + 1 in
  let rows = ref [] in
  List.iteri
    (fun i b ->
      let const_row = Vec.make width in
      const_row.(width - 1) <- Zint.of_int b;
      rows := const_row :: !rows;
      if i < depth then begin
        let iter_row = Vec.make width in
        iter_row.(i) <- Zint.one;
        rows := iter_row :: !rows
      end)
    beta;
  Array.of_list (List.rev !rows)

let stmt ~id ~name ~np ~depth ?iter_names ~domain ?(writes = []) ?(reads = [])
    ?body ~beta () =
  let iter_names =
    match iter_names with
    | Some ns -> ns
    | None -> Array.init depth (fun i -> Printf.sprintf "i%d" i)
  in
  { Prog.id; name; depth; domain; iter_names; writes; reads; body;
    schedule = schedule_2d1 ~np ~depth ~beta }

let const_extent ~np n =
  let row = Vec.make (np + 1) in
  row.(np) <- Zint.of_int n;
  row

let array2 name n0 n1 ~np =
  { Prog.array_name = name; rank = 2;
    extents = [| const_extent ~np n0; const_extent ~np n1 |] }

let array1 name n0 ~np =
  { Prog.array_name = name; rank = 1; extents = [| const_extent ~np n0 |] }
