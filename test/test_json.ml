(* The minimal JSON reader: it must faithfully read back the documents
   this codebase writes (metrics snapshots, Chrome traces) and reject
   malformed input with a located error rather than misparse. *)

module J = Sim.Json

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let ok s =
  match J.parse s with
  | Ok j -> j
  | Error e -> Alcotest.failf "%S should parse: %s" s e

let bad s =
  match J.parse s with
  | Ok _ -> Alcotest.failf "%S should not parse" s
  | Error _ -> ()

let test_scalars () =
  check_bool "null" true (ok "null" = J.Null);
  check_bool "true" true (ok "true" = J.Bool true);
  check_bool "false" true (ok " false " = J.Bool false);
  check_bool "int" true (ok "42" = J.Num 42.);
  check_bool "negative" true (ok "-17" = J.Num (-17.));
  check_bool "float" true (ok "1.5" = J.Num 1.5);
  check_bool "exponent" true (ok "1.1e6" = J.Num 1.1e6);
  check_bool "neg exponent" true (ok "25e-2" = J.Num 0.25);
  check_bool "string" true (ok "\"hi\"" = J.Str "hi");
  check_bool "empty list" true (ok "[]" = J.List []);
  check_bool "empty obj" true (ok "{}" = J.Obj [])

let test_escapes () =
  check_bool "quote+backslash" true
    (ok {|"a\"b\\c"|} = J.Str {|a"b\c|});
  check_bool "controls" true (ok {|"x\n\t\r\b\f"|} = J.Str "x\n\t\r\b\012");
  check_bool "slash" true (ok {|"a\/b"|} = J.Str "a/b");
  (* \u sequences decode to UTF-8 *)
  check_bool "ascii u" true (ok "\"\\u0041\"" = J.Str "A");
  check_bool "two-byte u" true (ok "\"\\u00e9\"" = J.Str "\xc3\xa9");
  check_bool "three-byte u" true (ok "\"\\u20ac\"" = J.Str "\xe2\x82\xac")

let test_structures () =
  let j = ok {|{"a": 1, "b": [true, null, "x"], "a": 2}|} in
  (* member returns the first of a duplicate name; document order kept *)
  check_bool "member a" true (J.member "a" j = Some (J.Num 1.));
  check_bool "member missing" true (J.member "zz" j = None);
  (match J.member "b" j with
  | Some l ->
      check_int "list len" 3 (List.length (J.to_list l));
      check_bool "list elems" true
        (J.to_list l = [ J.Bool true; J.Null; J.Str "x" ])
  | None -> Alcotest.fail "b missing");
  check_bool "num accessor" true (J.num (J.Num 3.) = Some 3.);
  check_bool "num of str" true (J.num (J.Str "3") = None);
  check_bool "str accessor" true (J.str (J.Str "s") = Some "s");
  check_bool "to_list of non-list" true (J.to_list J.Null = [])

let test_rejects () =
  bad "";
  bad "nul";
  bad "{";
  bad "[1,]";
  bad "{\"a\":}";
  bad "{\"a\" 1}";
  bad "\"unterminated";
  bad "\"bad \\q escape\"";
  bad "01";
  bad "1 2";
  (* trailing garbage *)
  bad "--3"

let test_error_offsets () =
  match J.parse "[1, 2, oops]" with
  | Ok _ -> Alcotest.fail "should not parse"
  | Error e ->
      check_bool "error mentions an offset" true
        (String.exists (fun c -> c >= '0' && c <= '9') e)

(* The reader exists to read what the repo writes: a metrics snapshot
   must round-trip values exactly. *)
let test_reads_metrics_export () =
  let reg = Sim.Metrics.create () in
  Sim.Metrics.register reg ~layer:"l1" ~instance:"i \"quoted\"" (fun () ->
      [ ("a", Sim.Metrics.Int 7); ("b", Sim.Metrics.Float 2.5) ]);
  let j = ok (Sim.Metrics.to_json reg ~meta:[ ("section", "t") ]) in
  check_bool "meta" true (J.member "section" j = Some (J.Str "t"));
  match J.member "sources" j with
  | Some (J.List [ src ]) ->
      check_bool "escaped instance" true
        (J.member "instance" src = Some (J.Str "i \"quoted\""));
      let m = Option.get (J.member "metrics" src) in
      check_bool "int metric" true (J.member "a" m = Some (J.Num 7.));
      check_bool "float metric" true (J.member "b" m = Some (J.Num 2.5))
  | _ -> Alcotest.fail "sources shape"

(* the one escaper every writer shares must produce what the reader
   reads back, for every ASCII byte *)
let test_escape_roundtrip () =
  let s = String.init 128 Char.chr in
  check_bool "all ASCII round-trips" true
    (ok ("\"" ^ J.escape s ^ "\"") = J.Str s);
  Alcotest.(check string) "short forms" {|q\"b\\n\nt\t\u0001|}
    (J.escape "q\"b\\n\nt\t\001")

let suites =
  [
    ( "json",
      [
        Alcotest.test_case "scalars" `Quick test_scalars;
        Alcotest.test_case "string escapes" `Quick test_escapes;
        Alcotest.test_case "objects and lists" `Quick test_structures;
        Alcotest.test_case "malformed input rejected" `Quick test_rejects;
        Alcotest.test_case "errors carry offsets" `Quick test_error_offsets;
        Alcotest.test_case "reads the metrics export" `Quick
          test_reads_metrics_export;
        Alcotest.test_case "escape round-trips through the reader" `Quick
          test_escape_roundtrip;
      ] );
  ]
