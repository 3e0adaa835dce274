open Emsc_machine
module R = Emsc_obs.Runtime_report
module J = Emsc_obs.Json

type t = {
  o_tolerance : float;
  o_double_buffer : bool;
  o_bound : float;
  o_achieved : float;
  o_dma_busy_s : float;
  o_compute_busy_s : float;
  o_quantities : Audit.quantity list;
  o_notes : string list;
  o_verdict : Audit.verdict;
}

(* interval endpoints come from one clock read per span boundary;
   5% absorbs rounding without masking a broken union sweep *)
let default_tolerance = 0.05

let audit ?(tolerance = default_tolerance) ~double_buffer ?model
    (r : R.t) =
  let dma = r.R.dma_busy_s and compute = r.R.compute_busy_s in
  let bound =
    if dma > 0.0 then Float.min 1.0 (compute /. dma) else 1.0
  in
  let achieved = r.R.overlap_fraction in
  let quantities = ref [ Audit.quantity "overlap_fraction" bound achieved ] in
  let notes = ref [] in
  (match model with
   | Some (b : Timing.breakdown) when b.Timing.t_comp > 0.0 ->
     let predicted_ratio = b.Timing.t_bw /. b.Timing.t_comp in
     let measured_ratio =
       if compute > 0.0 then dma /. compute else 0.0
     in
     quantities :=
       Audit.quantity "dma_to_compute_ratio" predicted_ratio measured_ratio
       :: !quantities;
     notes :=
       "dma_to_compute_ratio compares model cycles against interpreter \
        wall time; informational only"
       :: !notes
   | _ -> ());
  let verdict =
    if dma <= 0.0 then begin
      notes := "no DMA transfers recorded; overlap bound is vacuous"
               :: !notes;
      Audit.Pass
    end
    else if achieved > bound +. tolerance then Audit.Fail
    else if double_buffer && achieved < 0.25 *. bound then begin
      notes :=
        "double buffering achieved well under the model bound; expected \
         when domains timeshare few cores (see EXPERIMENTS.md)"
        :: !notes;
      Audit.Warn
    end
    else Audit.Pass
  in
  { o_tolerance = tolerance;
    o_double_buffer = double_buffer;
    o_bound = bound;
    o_achieved = achieved;
    o_dma_busy_s = dma;
    o_compute_busy_s = compute;
    o_quantities = List.rev !quantities;
    o_notes = List.rev !notes;
    o_verdict = verdict }

let ok t = t.o_verdict <> Audit.Fail

let json t =
  J.Obj
    [ ("schema", J.Str "emsc-overlap-audit/1");
      ("verdict", J.Str (Audit.verdict_string t.o_verdict));
      ("tolerance", J.Float t.o_tolerance);
      ("double_buffer", J.Bool t.o_double_buffer);
      ("bound", J.Float t.o_bound);
      ("achieved", J.Float t.o_achieved);
      ("dma_busy_ms", J.Float (t.o_dma_busy_s *. 1e3));
      ("compute_busy_ms", J.Float (t.o_compute_busy_s *. 1e3));
      ("quantities", J.List (List.map Audit.quantity_json t.o_quantities));
      ("notes", J.List (List.map (fun s -> J.Str s) t.o_notes)) ]

let pp fmt t =
  Format.fprintf fmt
    "overlap audit: %s (achieved %.3f, bound %.3f, tolerance %.2f)@."
    (String.uppercase_ascii (Audit.verdict_string t.o_verdict))
    t.o_achieved t.o_bound t.o_tolerance;
  Format.fprintf fmt "  dma busy %.3f ms, compute busy %.3f ms%s@."
    (t.o_dma_busy_s *. 1e3) (t.o_compute_busy_s *. 1e3)
    (if t.o_double_buffer then " (double-buffered)" else "");
  List.iter (fun n -> Format.fprintf fmt "  note: %s@." n) t.o_notes
