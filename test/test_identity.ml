(* The static tier's output is pinned: every DSG summary hash (node ids
   included), serve cache key, count and warning digest [Identity]
   computes must equal the digests in [identity.expected]. *)

let expected_file =
  List.find Sys.file_exists [ "identity.expected"; "test/identity.expected" ]

let test_identity () =
  let expected =
    In_channel.with_open_bin expected_file In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check (list string)) "identity digests" expected (Identity.lines ())

let suite =
  [
    Alcotest.test_case "DSG, cache keys, counts and warnings pinned" `Quick
      test_identity;
  ]
