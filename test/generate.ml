(* [Pipeline.run] for tests that expect generation to succeed: the
   artifact, with a typed error turned into a test failure. *)

module Pipeline = Benchgen.Pipeline

let artifact ?(cfg = Pipeline.default) source =
  match Pipeline.run cfg source with
  | Ok (a, _) -> a
  | Error e -> Alcotest.fail (Pipeline.error_to_string e)

let report ?cfg source = (artifact ?cfg source).Pipeline.report
