(* Tests for the ASCII reporting library. *)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* ------------------------------------------------------------------ Table *)

let test_table_render () =
  let t =
    Report.Table.create
      ~headers:[ ("name", Report.Table.Left); ("count", Report.Table.Right) ]
  in
  Report.Table.add_row t [ "alpha"; "1" ];
  Report.Table.add_row t [ "b"; "20" ];
  let s = Report.Table.render t in
  let lines = String.split_on_char '\n' s in
  (match lines with
  | header :: rule :: row1 :: row2 :: _ ->
      Alcotest.(check string) "header" "name   count" header;
      Alcotest.(check string) "rule" "-----  -----" rule;
      Alcotest.(check string) "left align" "alpha      1" row1;
      Alcotest.(check string) "right align" "b         20" row2
  | _ -> Alcotest.fail "unexpected line count")

let test_table_width_mismatch () =
  let t = Report.Table.create ~headers:[ ("a", Report.Table.Left) ] in
  (try
     Report.Table.add_row t [ "x"; "y" ];
     Alcotest.fail "mismatch accepted"
   with Invalid_argument _ -> ())

let test_table_rule () =
  let t = Report.Table.create ~headers:[ ("a", Report.Table.Left) ] in
  Report.Table.add_row t [ "x" ];
  Report.Table.add_rule t;
  Report.Table.add_row t [ "y" ];
  let s = Report.Table.render t in
  Alcotest.(check int) "five lines + trailing" 6
    (List.length (String.split_on_char '\n' s))

let test_table_of_rows () =
  let s =
    Report.Table.of_rows ~headers:[ ("h", Report.Table.Left) ] [ [ "v" ] ]
  in
  Alcotest.(check bool) "has header" true (contains s "h");
  Alcotest.(check bool) "has value" true (contains s "v")

(* ---------------------------------------------------------------- Heatmap *)

let test_heatmap_buckets () =
  (* buckets are ordered; strongly negative maps to '#' *)
  let g =
    Report.Heatmap.render
      ~x_axis:("x", [| 0.; 1. |])
      ~y_axis:("y", [| 0.; 1. |])
      ~values:(fun xi yi -> if xi = 0 && yi = 0 then -2000. else 0.4)
      ()
  in
  Alcotest.(check bool) "deep detection glyph" true (contains g "#");
  Alcotest.(check bool) "legend present" true (contains g "legend:");
  Alcotest.(check bool) "axis names present" true (contains g "x" && contains g "y")

let test_heatmap_1d () =
  let s =
    Report.Heatmap.render_1d ~x_axis:("p", [| 0.; 1.; 2. |])
      ~values:[| 0.; 1.; 0.5 |] ~height:5
  in
  Alcotest.(check bool) "bars drawn" true (contains s "*");
  Alcotest.(check bool) "axis label" true (contains s "p: 0 .. 2")

let test_heatmap_1d_errors () =
  (try
     ignore
       (Report.Heatmap.render_1d ~x_axis:("p", [| 0. |]) ~values:[| 0.; 1. |]
          ~height:5);
     Alcotest.fail "length mismatch accepted"
   with Invalid_argument _ -> ())

let contains_nan s =
  let l = String.lowercase_ascii s in
  let n = String.length l in
  let rec go i =
    if i + 3 > n then false
    else if String.sub l i 3 = "nan" then true
    else go (i + 1)
  in
  go 0

let test_heatmap_1d_flat_values () =
  (* all-equal values used to divide by a zero span and print NaN bars *)
  let s =
    Report.Heatmap.render_1d ~x_axis:("p", [| 0.; 1.; 2. |])
      ~values:[| 0.7; 0.7; 0.7 |] ~height:5
  in
  Alcotest.(check bool) "no NaN leaks into the chart" false (contains_nan s);
  Alcotest.(check bool) "bars still drawn" true (contains s "*")

let test_heatmap_1d_nonfinite_values () =
  let s =
    Report.Heatmap.render_1d ~x_axis:("p", [| 0.; 1.; 2. |])
      ~values:[| Float.nan; 1.; Float.infinity |] ~height:5
  in
  Alcotest.(check bool) "non-finite samples render" false (contains_nan s)

(* ---------------------------------------------------------------- Scatter *)

let test_scatter_basic () =
  let s =
    Report.Scatter.render ~x_label:"x" ~y_label:"y" ~x_range:(0., 1.)
      ~y_range:(0., 1.)
      [ { Report.Scatter.series_glyph = 'o'; points = [ (0.5, 0.5) ] } ]
  in
  Alcotest.(check bool) "point drawn" true (contains s "o");
  Alcotest.(check bool) "x label" true (contains s "x: 0 .. 1")

let test_scatter_out_of_range_dropped () =
  let s =
    Report.Scatter.render ~x_label:"x" ~y_label:"y" ~x_range:(0., 1.)
      ~y_range:(0., 1.)
      [ { Report.Scatter.series_glyph = 'o'; points = [ (5., 5.) ] } ]
  in
  Alcotest.(check bool) "no point drawn" false (contains s "o")

let test_scatter_invalid_range () =
  (try
     ignore
       (Report.Scatter.render ~x_label:"x" ~y_label:"y" ~x_range:(1., 0.)
          ~y_range:(0., 1.) []);
     Alcotest.fail "inverted range accepted"
   with Invalid_argument _ -> ())

let test_scatter_collapsed_range () =
  (* a single-valued axis (lo = hi) is legal: points land at index 0
     instead of dividing by a zero span *)
  let s =
    Report.Scatter.render ~x_label:"x" ~y_label:"y" ~x_range:(0.5, 0.5)
      ~y_range:(0., 1.)
      [ { Report.Scatter.series_glyph = 'o'; points = [ (0.5, 0.5) ] } ]
  in
  Alcotest.(check bool) "point still drawn" true (contains s "o");
  Alcotest.(check bool) "no NaN in the chart" false (contains_nan s)

let test_scatter_1d_collapsed_range () =
  let s =
    Report.Scatter.render_1d ~width:10 ~label:"p" ~range:(2., 2.) [ 2.; 2. ]
  in
  Alcotest.(check bool) "both points counted" true (contains s "2");
  Alcotest.(check bool) "no NaN in the strip" false (contains_nan s)

let test_scatter_1d_counts () =
  let s =
    Report.Scatter.render_1d ~width:10 ~label:"p" ~range:(0., 1.)
      [ 0.; 0.; 0.; 1. ]
  in
  (* three points at the left edge -> digit 3 *)
  Alcotest.(check bool) "count digit" true (contains s "3");
  Alcotest.(check bool) "single point digit" true (contains s "1")

let () =
  Alcotest.run "report"
    [
      ( "table",
        [
          Alcotest.test_case "render/align" `Quick test_table_render;
          Alcotest.test_case "width mismatch" `Quick test_table_width_mismatch;
          Alcotest.test_case "rules" `Quick test_table_rule;
          Alcotest.test_case "of_rows" `Quick test_table_of_rows;
        ] );
      ( "heatmap",
        [
          Alcotest.test_case "buckets and legend" `Quick test_heatmap_buckets;
          Alcotest.test_case "1d bars" `Quick test_heatmap_1d;
          Alcotest.test_case "1d errors" `Quick test_heatmap_1d_errors;
          Alcotest.test_case "1d flat values" `Quick test_heatmap_1d_flat_values;
          Alcotest.test_case "1d non-finite values" `Quick
            test_heatmap_1d_nonfinite_values;
        ] );
      ( "scatter",
        [
          Alcotest.test_case "basic" `Quick test_scatter_basic;
          Alcotest.test_case "out of range" `Quick test_scatter_out_of_range_dropped;
          Alcotest.test_case "invalid range" `Quick test_scatter_invalid_range;
          Alcotest.test_case "collapsed axis" `Quick test_scatter_collapsed_range;
          Alcotest.test_case "1d strip counts" `Quick test_scatter_1d_counts;
          Alcotest.test_case "1d collapsed range" `Quick
            test_scatter_1d_collapsed_range;
        ] );
    ]
